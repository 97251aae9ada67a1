// ao_worker: runs shards of service campaigns in its own process, speaking
// the worker frame protocol (docs/service.md#wire-format-frames) — a
// `worker` hello, then `task` frames in, batched `records` frames, a
// `spans` frame and a `store` frame (the count of entry lines sent) out per
// shard, until the daemon says bye. Two transports:
//
//   ao_worker --connect <endpoint> [--name <id>]
//     Remote mode: connect to a campaign daemon — a unix socket path, or
//     host:port for a daemon listening with --tcp on another machine —
//     and serve its shards over the socket. No shared filesystem anywhere.
//     Heartbeat pings are answered with this process's monotonic clock
//     reading, which the daemon uses to align shipped spans onto its own
//     timeline.
//
//   ao_worker --stdio-frames [--name <id>]
//     The same conversation over stdin/stdout. The daemon runs its local
//     shards this way (`--stdio-frames --name local`, one child per shard,
//     the far end of a socketpair on stdin/stdout); it also serves bridged
//     transports (e.g. `ssh host ao_worker --stdio-frames` with the far end
//     socat-ed into the daemon socket).

#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "service/worker_link.hpp"

namespace {

int usage() {
  std::cerr << "usage: ao_worker --connect <socket-path | host:port> "
               "[--name <id>] [--batch <n>] [--batch-flush-ms <ms>]\n"
               "       ao_worker --stdio-frames [--name <id>] [--batch <n>] "
               "[--batch-flush-ms <ms>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-write must surface as a failed write (clean
  // "daemon went away" exit), not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  std::string connect_endpoint;
  std::string name;
  bool stdio_frames = false;
  ao::service::WorkerSessionOptions session_options;
  for (int i = 1; i < argc; ++i) {
    const auto needs_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ao_worker: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t count = 0;
    if (std::strcmp(argv[i], "--connect") == 0) {
      connect_endpoint = needs_value("--connect");
    } else if (std::strcmp(argv[i], "--name") == 0) {
      name = needs_value("--name");
    } else if (std::strcmp(argv[i], "--stdio-frames") == 0) {
      stdio_frames = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      if (!ao::service::parse_u64_token(needs_value("--batch"), count) ||
          count == 0) {
        std::cerr << "ao_worker: --batch needs a positive integer\n";
        return 2;
      }
      session_options.record_batch = count;
    } else if (std::strcmp(argv[i], "--batch-flush-ms") == 0) {
      if (!ao::service::parse_u64_token(needs_value("--batch-flush-ms"),
                                        count) ||
          count > UINT64_MAX / 1'000'000) {
        std::cerr << "ao_worker: --batch-flush-ms needs an integer in [0, "
                  << UINT64_MAX / 1'000'000 << "]\n";
        return 2;
      }
      session_options.batch_flush_ns = count * 1'000'000;
    } else {
      std::cerr << "ao_worker: unknown option " << argv[i] << "\n";
      return 2;
    }
  }

  if (name.empty()) {
    name = "w" + std::to_string(::getpid());
  }
  if (!ao::service::valid_campaign_name(name)) {
    std::cerr << "ao_worker: invalid --name (use [A-Za-z0-9._-], at most 64 "
                 "chars)\n";
    return 2;
  }
  if (connect_endpoint.empty() == !stdio_frames) {
    return usage();  // exactly one transport
  }

  if (stdio_frames) {
    return ao::service::run_worker_session(std::cin, std::cout, name,
                                           session_options);
  }
  const int fd = ao::service::connect_endpoint(connect_endpoint);
  if (fd < 0) {
    std::cerr << "ao_worker: cannot connect to " << connect_endpoint << "\n";
    return 1;
  }
  ao::service::SocketStream stream(fd);
  return ao::service::run_worker_session(stream, stream, name,
                                         session_options);
}
