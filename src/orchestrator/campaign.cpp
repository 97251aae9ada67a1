#include "orchestrator/campaign.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "util/error.hpp"

namespace ao::orchestrator {

std::vector<harness::GemmMeasurement> CampaignResult::ordered(
    const std::vector<std::size_t>& sizes,
    const std::vector<soc::GemmImpl>& impls) const {
  // Preserve the chip grouping of the canonical sort, then emit the serial
  // suite's size-major / implementation-minor row order within each chip.
  std::vector<soc::ChipModel> chip_order;
  for (const auto& m : gemm) {
    if (std::find(chip_order.begin(), chip_order.end(), m.chip) ==
        chip_order.end()) {
      chip_order.push_back(m.chip);
    }
  }
  std::map<std::tuple<soc::ChipModel, std::size_t, soc::GemmImpl>,
           const harness::GemmMeasurement*>
      by_point;
  for (const auto& m : gemm) {
    by_point.emplace(std::tuple(m.chip, m.n, m.impl), &m);
  }
  std::vector<harness::GemmMeasurement> out;
  out.reserve(gemm.size());
  for (const auto chip : chip_order) {
    for (const std::size_t n : sizes) {
      for (const auto impl : impls) {
        const auto it = by_point.find(std::tuple(chip, n, impl));
        if (it != by_point.end()) {
          out.push_back(*it->second);
        }
      }
    }
  }
  return out;
}

Campaign& Campaign::chips(std::vector<soc::ChipModel> chips) {
  chips_ = std::move(chips);
  return *this;
}

Campaign& Campaign::impls(std::vector<soc::GemmImpl> impls) {
  impls_ = std::move(impls);
  return *this;
}

Campaign& Campaign::sizes(std::vector<std::size_t> sizes) {
  sizes_ = std::move(sizes);
  return *this;
}

Campaign& Campaign::options(harness::GemmExperiment::Options options) {
  options_ = std::move(options);
  return *this;
}

Campaign& Campaign::concurrency(std::size_t workers) {
  concurrency_ = workers;
  return *this;
}

Campaign& Campaign::cache(ResultCache* cache) {
  cache_ = cache;
  return *this;
}

Campaign& Campaign::stream_sweep(std::vector<int> thread_counts,
                                 int repetitions, std::size_t elements) {
  AO_REQUIRE(repetitions >= 1, "need at least one STREAM repetition");
  stream_thread_counts_ = std::move(thread_counts);
  stream_repetitions_ = repetitions;
  stream_elements_ = elements;
  return *this;
}

Campaign& Campaign::gpu_stream(int repetitions, std::size_t elements) {
  AO_REQUIRE(repetitions >= 1, "need at least one STREAM repetition");
  gpu_stream_ = true;
  gpu_stream_repetitions_ = repetitions;
  gpu_stream_elements_ = elements;
  return *this;
}

Campaign& Campaign::precision_study(std::vector<std::size_t> sizes,
                                    std::uint64_t seed) {
  precision_sizes_ = std::move(sizes);
  precision_seed_ = seed;
  return *this;
}

Campaign& Campaign::ane_inference(std::vector<std::size_t> sizes,
                                  bool functional) {
  ane_sizes_ = std::move(sizes);
  ane_functional_ = functional;
  return *this;
}

Campaign& Campaign::fp64_emulation(std::vector<std::size_t> sizes,
                                   std::uint64_t seed) {
  fp64emu_sizes_ = std::move(sizes);
  fp64emu_seed_ = seed;
  return *this;
}

Campaign& Campaign::sme_gemm(std::vector<std::size_t> sizes,
                             std::uint64_t seed) {
  sme_sizes_ = std::move(sizes);
  sme_seed_ = seed;
  return *this;
}

Campaign& Campaign::power_idle(double window_seconds) {
  AO_REQUIRE(window_seconds > 0.0, "power window must be positive");
  power_idle_ = true;
  power_window_seconds_ = window_seconds;
  return *this;
}

Campaign& Campaign::profiler(obs::TimelineProfiler* profiler) {
  profiler_ = profiler;
  return *this;
}

std::vector<Campaign::JobGroup> Campaign::groups() const {
  AO_REQUIRE(!chips_.empty(), "campaign needs at least one chip");
  std::vector<JobGroup> out;
  for (const auto chip : chips_) {
    for (const std::size_t n : sizes_) {
      for (const auto impl : impls_) {
        if (harness::paper_skips(impl, n)) {
          continue;  // the paper's skip rule is part of the sweep contract
        }
        ExperimentJob measure;
        measure.kind = JobKind::kGemmMeasure;
        // Large sizes first: the long-running points start while the small
        // ones backfill idle workers. Saturated, so a size past INT_MAX
        // still ranks first instead of wrapping negative.
        measure.priority = static_cast<int>(
            std::min<std::size_t>(n, std::numeric_limits<int>::max()));
        measure.chip = chip;
        measure.impl = impl;
        measure.n = n;
        measure.expects_verify = harness::functional_at(options_, impl, n) &&
                                 n <= options_.verify_n_max;
        JobGroup group;
        group.jobs.push_back(measure);
        if (measure.expects_verify) {
          ExperimentJob verify;
          verify.kind = JobKind::kGemmVerify;
          verify.priority = measure.priority;
          verify.chip = chip;
          verify.impl = impl;
          verify.n = n;
          group.jobs.push_back(verify);
        }
        out.push_back(std::move(group));
      }
    }
    for (const int threads : stream_thread_counts_) {
      ExperimentJob job;
      job.kind = JobKind::kStream;
      job.chip = chip;
      job.stream_threads = threads;
      job.stream_repetitions = stream_repetitions_;
      job.stream_elements = stream_elements_;
      out.push_back({{job}});
    }
    if (gpu_stream_) {
      ExperimentJob job;
      job.kind = JobKind::kGpuStream;
      job.chip = chip;
      job.stream_repetitions = gpu_stream_repetitions_;
      job.stream_elements = gpu_stream_elements_;
      out.push_back({{job}});
    }
    for (const std::size_t n : precision_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kPrecisionStudy;
      job.chip = chip;
      job.n = n;
      job.study_seed = precision_seed_;
      out.push_back({{job}});
    }
    for (const std::size_t n : ane_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kAneInference;
      job.chip = chip;
      job.n = n;
      job.ane_functional = ane_functional_;
      out.push_back({{job}});
    }
    for (const std::size_t n : fp64emu_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kFp64Emulation;
      job.chip = chip;
      job.n = n;
      job.study_seed = fp64emu_seed_;
      out.push_back({{job}});
    }
    for (const std::size_t n : sme_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kSmeGemm;
      job.chip = chip;
      job.n = n;
      job.study_seed = sme_seed_;
      out.push_back({{job}});
    }
    if (power_idle_) {
      ExperimentJob job;
      job.kind = JobKind::kPowerIdle;
      job.chip = chip;
      job.power_window_seconds = power_window_seconds_;
      out.push_back({{job}});
    }
  }
  return out;
}

namespace {

void push_group(JobQueue& queue, const Campaign::JobGroup& group) {
  const JobId root = queue.push(group.jobs.front());
  for (std::size_t i = 1; i < group.jobs.size(); ++i) {
    ExperimentJob dependent = group.jobs[i];
    dependent.parent = root;
    queue.push(dependent, {root});
  }
}

}  // namespace

void push_groups(JobQueue& queue,
                 const std::vector<Campaign::JobGroup>& groups) {
  for (const Campaign::JobGroup& group : groups) {
    push_group(queue, group);
  }
}

void push_group_subset(JobQueue& queue,
                       const std::vector<Campaign::JobGroup>& groups,
                       const std::vector<std::size_t>& group_indices) {
  for (const std::size_t index : group_indices) {
    AO_REQUIRE(index < groups.size(), "shard group index out of range");
    push_group(queue, groups[index]);
  }
}

void Campaign::expand(JobQueue& queue) const { push_groups(queue, groups()); }

std::size_t Campaign::job_count() const {
  std::size_t count = 0;
  for (const JobGroup& group : groups()) {
    count += group.jobs.size();
  }
  return count;
}

CampaignResult Campaign::run() {
  obs::TimelineProfiler::Scope root(profiler_, obs::Phase::kCampaign,
                                    /*parent=*/0, "campaign-run");
  JobQueue queue;
  {
    obs::TimelineProfiler::Scope schedule(profiler_, obs::Phase::kSchedule);
    expand(queue);
  }

  CampaignScheduler::Options scheduler_options;
  scheduler_options.concurrency = concurrency_;
  CampaignScheduler scheduler(options_, scheduler_options, cache_);
  scheduler.set_profile_sink(profiler_, root.id());
  if (cache_ != nullptr) {
    cache_->set_profiler(profiler_);
  }
  CampaignOutputs outputs = scheduler.run(queue);
  if (cache_ != nullptr) {
    cache_->set_profiler(nullptr);
  }

  CampaignResult result;
  result.gemm = std::move(outputs.gemm);
  result.stream = std::move(outputs.stream);
  result.precision = std::move(outputs.precision);
  result.ane = std::move(outputs.ane);
  result.power = std::move(outputs.power);
  result.fp64emu = std::move(outputs.fp64emu);
  result.sme = std::move(outputs.sme);
  result.stats = outputs.stats;
  return result;
}

}  // namespace ao::orchestrator
