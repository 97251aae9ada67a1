// perf_layers: the campaign benchmark's self-timed layer driver.
//
// Calls each layer's public functions directly (no daemon, no sockets) and
// times every call with its own span, kept in memory and written out as JSON
// when the driver exits. Each per-layer metric is the median over the
// repetitions of one call shape, reported with the work one call did.
//
//   perf_layers --workdir <dir> --request <file> --store <file>
//
// --request is a campaign request block (the protocol's begin ... run text)
// used for the expansion, plan-cache and session measurements; --store is a
// result store whose entries feed the cache, store and wire measurements
// (it is read, never written). Scratch files go under --workdir, and the
// spans land in <workdir>/layer_spans.json. The metrics are printed as one
// JSON object on stdout: {"metrics": {name: {"value", "unit", "work"}}}.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "gemm/gemm_interface.hpp"
#include "harness/experiment.hpp"
#include "harness/matrix_workload.hpp"
#include "orchestrator/campaign.hpp"
#include "orchestrator/plan_cache.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "orchestrator/store_index.hpp"
#include "power/powermetrics.hpp"
#include "service/frame.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "util/aligned_buffer.hpp"

namespace {

using namespace ao;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span log: one span per timed call, grouped under the metric it
/// feeds (the parent). Written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t work;
  };

  /// Runs `fn` once inside a span; returns its duration in ns.
  template <typename Fn>
  std::uint64_t span(const std::string& name, const std::string& parent,
                     std::uint64_t work, Fn&& fn) {
    const std::uint64_t start = now_ns();
    fn();
    const std::uint64_t end = now_ns();
    spans_.push_back({name, parent, start, end, work});
    return end - start;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"schema\": \"perfbench-layer-spans/1\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "  {\"name\": \"" << s.name << "\", \"parent\": \"" << s.parent
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"work\": " << s.work << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

struct Metric {
  double value;
  std::string unit;
  std::string work;  ///< what one timed call did, for the report
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

class Driver {
 public:
  Driver(std::string workdir, std::string request_path, std::string store_path)
      : workdir_(std::move(workdir)),
        request_path_(std::move(request_path)),
        store_path_(std::move(store_path)) {}

  void run() {
    load_inputs();
    substrate_memory();
    substrate_host_bandwidth();
    substrate_kernels();
    substrate_power();
    orchestrator_layer();
    store_layer();
    wire_layer();
    service_layer();
  }

  void report(std::ostream& out) const {
    out << "{\"metrics\": {";
    bool first = true;
    out << std::setprecision(17);
    for (const auto& [name, metric] : metrics_) {
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << metric.value << ", \"unit\": \"" << metric.unit
          << "\", \"work\": \"" << metric.work << "\"}";
      first = false;
    }
    out << "}}\n";
  }

  void write_spans() const { tracer_.write(workdir_ + "/layer_spans.json"); }

 private:
  /// Times `reps` calls of `fn` under metric `name`; returns the median
  /// call duration in ns.
  template <typename Fn>
  double timed(const std::string& name, int reps, std::uint64_t work, Fn&& fn) {
    std::vector<double> durations;
    for (int i = 0; i < reps; ++i) {
      durations.push_back(
          static_cast<double>(tracer_.span(name + "#" + std::to_string(i),
                                           name, work, fn)));
    }
    return median(durations);
  }

  void put(const std::string& name, double value, const std::string& unit,
           const std::string& work) {
    metrics_[name] = {value, unit, work};
  }

  void load_inputs() {
    std::ifstream in(request_path_);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
    std::string error;
    auto request = service::parse_request_lines(lines, &error);
    if (!request.has_value()) {
      throw std::runtime_error("bad --request: " + error);
    }
    request_ = *request;
    request_text_.clear();
    for (const std::string& line : lines) {
      request_text_ += line + "\n";
    }

    orchestrator::ResultCache store(1u << 20);
    if (store.load(store_path_) == 0) {
      throw std::runtime_error("empty --store: " + store_path_);
    }
    entries_ = store.entries();
  }

  // ------------------------------------------------------------ substrate --

  void substrate_memory() {
    for (const std::size_t n : {std::size_t{1024}, std::size_t{16384}}) {
      const std::string tag = ".n" + std::to_string(n);
      const std::size_t bytes = n * n * sizeof(float);
      const int reps = n >= 16384 ? 3 : 15;

      double alloc_ns = 0;
      {
        std::vector<double> durations;
        for (int i = 0; i < reps; ++i) {
          std::unique_ptr<util::AlignedBuffer> buffer;
          durations.push_back(static_cast<double>(tracer_.span(
              "substrate.buffer_alloc" + tag + "#" + std::to_string(i),
              "substrate.buffer_alloc" + tag, bytes,
              [&] { buffer = std::make_unique<util::AlignedBuffer>(bytes); })));
        }
        alloc_ns = median(durations);
      }
      put("substrate.buffer_alloc_ms" + tag, alloc_ns / 1e6, "ms",
          "one AlignedBuffer of n*n floats");
      if (n == 16384) {
        zero_gbs_ = static_cast<double>(util::AlignedBuffer::round_up(
                        bytes, util::kApplePageSize)) /
                    alloc_ns;
      }

      std::vector<double> setup;
      std::vector<double> recycle;
      for (int i = 0; i < reps; ++i) {
        std::unique_ptr<orchestrator::MatrixBatch> batch;
        setup.push_back(static_cast<double>(tracer_.span(
            "substrate.batch_setup" + tag + "#" + std::to_string(i),
            "substrate.batch_setup" + tag, 2 * bytes, [&] {
              batch = std::make_unique<orchestrator::MatrixBatch>(n, false, 7);
            })));
        // The first checkout allocates the output buffer; the timed cycle
        // is the steady state every later job pays: check a recycled buffer
        // out and give it back (which re-zeroes it).
        batch->acquire_out().reset();
        recycle.push_back(static_cast<double>(tracer_.span(
            "substrate.out_recycle" + tag + "#" + std::to_string(i),
            "substrate.out_recycle" + tag, bytes,
            [&] { batch->acquire_out().reset(); })));
      }
      put("substrate.batch_setup_ms" + tag, median(setup) / 1e6, "ms",
          "one MatrixBatch (left+right operands, unfilled)");
      put("substrate.out_recycle_ms" + tag, median(recycle) / 1e6, "ms",
          "acquire_out + release of one recycled output buffer");
    }
  }

  void substrate_host_bandwidth() {
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) {
      llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    }
    if (llc <= 0) {
      llc = 32L << 20;
    }
    const std::size_t bytes_per_array =
        std::max<std::size_t>(4 * static_cast<std::size_t>(llc), 64u << 20);
    const std::size_t count = bytes_per_array / sizeof(double);
    std::vector<double> a(count, 0.0);
    std::vector<double> b(count, 1.0);
    std::vector<double> c(count, 2.0);
    const double scalar = 3.0;
    // Computed bytes: two reads and one write per element (write-allocate
    // traffic is not counted, as in STREAM).
    const std::uint64_t moved = 3 * count * sizeof(double);
    std::vector<double> durations;
    for (int i = 0; i < 7; ++i) {
      durations.push_back(static_cast<double>(tracer_.span(
          "substrate.triad#" + std::to_string(i), "substrate.triad", moved,
          [&] {
            double* __restrict pa = a.data();
            const double* __restrict pb = b.data();
            const double* __restrict pc = c.data();
            for (std::size_t j = 0; j < count; ++j) {
              pa[j] = pb[j] + scalar * pc[j];
            }
          })));
      b[i] = a[count - 1 - i];  // feed the result back so no pass is dead
    }
    const double best = *std::min_element(durations.begin(), durations.end());
    const double gbs = static_cast<double>(moved) / best;
    put("substrate.host_bw_gbs", gbs, "GB/s",
        "one-thread triad, computed bytes 3*8*elements");
    put("substrate.llc_mib", static_cast<double>(llc) / (1 << 20), "MiB",
        "last-level cache size the triad arrays exceed 4x");
    put("substrate.triad_array_mib",
        static_cast<double>(bytes_per_array) / (1 << 20), "MiB",
        "bytes per triad array");
    put("substrate.zero_gbs.n16384", zero_gbs_, "GB/s",
        "computed bytes: page-rounded n*n*4 zeroed per AlignedBuffer");
    put("substrate.zero_rate_over_bw", zero_gbs_ / gbs, "ratio",
        "zero_gbs.n16384 / host_bw_gbs");
  }

  void substrate_kernels() {
    core::System system(soc::ChipModel::kM1);
    const harness::GemmExperiment::Options defaults;
    for (const soc::GemmImpl impl : soc::kAllGemmImpls) {
      const std::size_t n = defaults.functional_n_max.at(impl);
      const std::size_t bytes = n * n * sizeof(float);
      util::AlignedBuffer left(bytes);
      util::AlignedBuffer right(bytes);
      util::AlignedBuffer out(bytes);
      harness::fill_left_operand(left.as_span<float>().data(), n, 5);
      harness::fill_right_operand(right.as_span<float>().data(), n, 5);
      auto gemm = gemm::create_gemm(impl, system.gemm_context());
      std::string name = soc::to_string(impl);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      const double flops = 2.0 * static_cast<double>(n) * n * n;
      const double ns = timed(
          "substrate.kernel." + name, 3, static_cast<std::uint64_t>(flops),
          [&] {
            gemm->multiply(n, left.capacity(), left.as_span<float>().data(),
                           right.as_span<float>().data(),
                           out.as_span<float>().data(), true);
          });
      put("substrate.kernel_gflops." + name, flops / ns, "GFLOP/s",
          "one functional multiply at n=" + std::to_string(n));
    }

    const std::size_t n = 256;
    orchestrator::MatrixBatch batch(n, true, 5);
    auto lease = batch.acquire_out();
    const harness::MatrixView view = lease->view();
    auto gemm = gemm::create_gemm(soc::GemmImpl::kCpuAccelerate,
                                  system.gemm_context());
    gemm->multiply(n, view.memory_length, view.left, view.right, view.out,
                   true);
    harness::GemmMeasurement m;
    m.chip = soc::ChipModel::kM1;
    m.impl = soc::GemmImpl::kCpuAccelerate;
    m.n = n;
    m.functional = true;
    const double ns = timed("substrate.verify.n256", 5, n * n, [&] {
      m.verified = false;
      harness::verify_measurement(m, view);
    });
    if (!m.verified) {
      throw std::runtime_error("verify_measurement rejected a correct product");
    }
    put("substrate.verify_ms.n256", ns / 1e6, "ms",
        "verify_measurement of one n=256 product");
  }

  void substrate_power() {
    core::System system(soc::ChipModel::kM1);
    soc::Soc& soc = system.soc();
    const double ns = timed("substrate.power_sample", 5, 1, [&] {
      power::PowerMetrics monitor(soc, power::SamplerSet{true, true, true});
      monitor.start();
      soc.idle(0.5e9);
      monitor.siginfo();
      monitor.stop();
      soc.reset();
    });
    put("substrate.power_sample_ms", ns / 1e6, "ms",
        "one idle-floor power sample (0.5 s simulated window)");
  }

  // --------------------------------------------------------- orchestrator --

  void orchestrator_layer() {
    orchestrator::SystemPool pool;
    { auto warm = pool.acquire(soc::ChipModel::kM1); }
    const double lease_ns = timed("orchestrator.lease", 201, 1, [&] {
      auto lease = pool.acquire(soc::ChipModel::kM1);
    });
    put("orchestrator.lease_us", lease_ns / 1e3, "us",
        "SystemPool acquire + release (reset)");

    harness::GemmExperiment::Options model_only;
    for (auto& [impl, ceiling] : model_only.functional_n_max) {
      ceiling = 0;
    }
    orchestrator::Campaign sweep;
    sweep.sizes({32}).options(model_only);
    orchestrator::CampaignScheduler scheduler(model_only, {1}, nullptr);
    std::vector<double> per_job;
    for (int i = 0; i < 7; ++i) {
      orchestrator::JobQueue queue;
      sweep.expand(queue);
      const std::size_t jobs = queue.total();
      const std::uint64_t ns = tracer_.span(
          "orchestrator.sched#" + std::to_string(i), "orchestrator.sched",
          jobs, [&] { scheduler.run(queue); });
      per_job.push_back(static_cast<double>(ns) / static_cast<double>(jobs));
    }
    put("orchestrator.sched_us_per_job", median(per_job) / 1e3, "us",
        "CampaignScheduler::run, model-only n=32 queue, 1 worker");

    const orchestrator::Campaign campaign = request_.to_campaign();
    const std::size_t job_count = campaign.job_count();
    const double expand_ns = timed("orchestrator.expand", 11, job_count, [&] {
      orchestrator::JobQueue queue;
      campaign.expand(queue);
    });
    put("orchestrator.expand_ms", expand_ns / 1e6, "ms",
        "Campaign::expand of the sharded-store request");

    const std::string key = service::plan_key(request_);
    const auto compile = [&] { return orchestrator::compile_campaign(campaign); };
    orchestrator::PlanCache plans;
    const double miss_ns = timed("orchestrator.plan_miss", 11, job_count, [&] {
      plans.clear();
      plans.checkout(key, compile);
    });
    const double hit_ns = timed("orchestrator.plan_hit", 101, job_count,
                                [&] { plans.checkout(key, compile); });
    put("orchestrator.plan_checkout_us.miss", miss_ns / 1e3, "us",
        "PlanCache::checkout that compiles");
    put("orchestrator.plan_checkout_us.hit", hit_ns / 1e3, "us",
        "PlanCache::checkout served from the cache");

    const std::size_t count = entries_.size();
    std::vector<double> insert;
    std::vector<double> lookup;
    for (int i = 0; i < 5; ++i) {
      orchestrator::ResultCache cache(2 * count);
      insert.push_back(static_cast<double>(tracer_.span(
          "orchestrator.cache_insert#" + std::to_string(i),
          "orchestrator.cache_insert", count, [&] {
            for (const auto& [k, record] : entries_) {
              cache.insert(k, record);
            }
          })));
      std::size_t found = 0;
      lookup.push_back(static_cast<double>(tracer_.span(
          "orchestrator.cache_lookup#" + std::to_string(i),
          "orchestrator.cache_lookup", count, [&] {
            for (const auto& entry : entries_) {
              found += cache.lookup(entry.first).has_value() ? 1 : 0;
            }
          })));
      if (found != count) {
        throw std::runtime_error("cache lookup missed an inserted record");
      }
    }
    put("orchestrator.cache_insert_ns", median(insert) / count, "ns",
        "ResultCache::insert per record");
    put("orchestrator.cache_lookup_ns", median(lookup) / count, "ns",
        "ResultCache::lookup hit per record");
  }

  // ---------------------------------------------------------------- store --

  void store_layer() {
    const std::size_t count = entries_.size();
    orchestrator::ResultCache full(2 * count);
    for (const auto& [key, record] : entries_) {
      full.insert(key, record);
    }
    const double serialize_ns = timed("store.serialize", 7, count,
                                      [&] { buffer_ = full.serialize_store(); });
    put("store.serialize_ns_per_record", serialize_ns / count, "ns",
        "ResultCache::serialize_store per record");

    const double merge_ns = timed("store.merge", 7, count, [&] {
      orchestrator::ResultCache target(2 * count);
      if (target.merge_buffer(buffer_) != count) {
        throw std::runtime_error("merge_buffer lost entries");
      }
    });
    put("store.merge_ns_per_record", merge_ns / count, "ns",
        "ResultCache::merge_buffer per record");

    const std::size_t persisted = std::min<std::size_t>(count, 512);
    const std::string persist_path = workdir_ + "/persist.aocache";
    std::vector<double> persist;
    for (int i = 0; i < 3; ++i) {
      std::remove(persist_path.c_str());
      orchestrator::ResultCache cache(2 * count);
      cache.persist_to(persist_path);
      persist.push_back(static_cast<double>(tracer_.span(
          "store.insert_persist#" + std::to_string(i), "store.insert_persist",
          persisted, [&] {
            for (std::size_t j = 0; j < persisted; ++j) {
              cache.insert(entries_[j].first, entries_[j].second);
            }
          })));
    }
    std::remove(persist_path.c_str());
    put("store.insert_persist_us", median(persist) / persisted / 1e3, "us",
        "write-through ResultCache::insert per record");

    const double load_ns = timed("store.load", 7, count, [&] {
      orchestrator::ResultCache cache(4096);
      cache.load(store_path_);
    });
    put("store.load_ms", load_ns / 1e6, "ms",
        "ResultCache::load of the pre-filled store");

    // The query path needs an attached store; attach a copy so the input
    // store is never written.
    const std::string query_path = workdir_ + "/query.aocache";
    std::remove(query_path.c_str());
    orchestrator::ResultCache attached(4096);
    attached.save(query_path);
    attached.persist_to(query_path);
    attached.merge_buffer(buffer_);
    std::vector<double> pages;
    std::string cursor;
    std::size_t served = 0;
    while (pages.size() < 200) {
      std::optional<orchestrator::ResultCache::QueryPage> page;
      std::string error;
      pages.push_back(static_cast<double>(tracer_.span(
          "store.query_page#" + std::to_string(pages.size()), "store.query_page",
          64, [&] { page = attached.query({}, 64, cursor, &error); })));
      if (!page.has_value()) {
        throw std::runtime_error("query failed: " + error);
      }
      served += page->lines.size();
      cursor = page->exhausted ? std::string{} : page->cursor;
    }
    std::remove(query_path.c_str());
    put("store.query_page_us", median(pages) / 1e3, "us",
        "ResultCache::query page of 64 entries, cursor-chained");
  }

  // ----------------------------------------------------------------- wire --

  void wire_layer() {
    const double mib = static_cast<double>(buffer_.size()) / (1 << 20);
    std::string encoded;
    const double encode_ns = timed("wire.frame_encode", 51, buffer_.size(), [&] {
      encoded.clear();
      service::encode_frame_into(encoded, service::kFrameStore, buffer_);
    });
    const double decode_ns = timed("wire.frame_decode", 51, buffer_.size(), [&] {
      std::istringstream in(encoded);
      std::string error;
      const auto frame = service::read_frame(in, &error);
      if (!frame.has_value() || frame->payload.size() != buffer_.size()) {
        throw std::runtime_error("read_frame failed: " + error);
      }
    });
    put("wire.frame_encode_mib_s", mib / (encode_ns / 1e9), "MiB/s",
        "encode_frame_into of one store frame");
    put("wire.frame_decode_mib_s", mib / (decode_ns / 1e9), "MiB/s",
        "read_frame of one store frame");
  }

  // -------------------------------------------------------------- service --

  void service_layer() {
    service::CampaignService::Config config;
    config.shard_dir = workdir_;
    service::CampaignService service(config);
    const auto serve_once = [&] {
      std::istringstream in(request_text_);
      std::ostringstream out;
      service.serve(in, out);
      if (out.str().find("done campaign") == std::string::npos) {
        throw std::runtime_error("session did not finish: " + out.str());
      }
    };
    serve_once();  // fills the warm cache; every later session is all hits
    const double ns = timed("service.session", 11, 1, serve_once);
    put("service.session_us", ns / 1e3, "us",
        "CampaignService::serve of a fully cached campaign");
  }

  std::string workdir_;
  std::string request_path_;
  std::string store_path_;
  service::CampaignRequest request_;
  std::string request_text_;
  std::vector<orchestrator::ResultCache::Entry> entries_;
  std::string buffer_;
  double zero_gbs_ = 0;
  Tracer tracer_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string workdir;
  std::string request;
  std::string store;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workdir") {
      workdir = argv[i + 1];
    } else if (flag == "--request") {
      request = argv[i + 1];
    } else if (flag == "--store") {
      store = argv[i + 1];
    } else {
      std::cerr << "perf_layers: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (workdir.empty() || request.empty() || store.empty()) {
    std::cerr << "usage: perf_layers --workdir <dir> --request <file> "
                 "--store <file>\n";
    return 2;
  }
  Driver driver(workdir, request, store);
  try {
    driver.run();
  } catch (const std::exception& e) {
    std::cerr << "perf_layers: " << e.what() << "\n";
    driver.write_spans();
    return 1;
  }
  driver.write_spans();
  driver.report(std::cout);
  return 0;
}
