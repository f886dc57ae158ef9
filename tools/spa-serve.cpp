//===- spa-serve.cpp - Resident analysis daemon ---------------------------===//
//
// Part of the SPA project (PLDI 2012 sparse analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spa-serve daemon: caches each analyzed program's response behind
/// a Unix-domain socket so repeated analysis requests (CI bots, editor
/// integrations) pay cold cost once; an edited program is a new program
/// and is analyzed whole (docs/SERVER.md).  Clients are `spa-analyze --connect=SOCK`
/// or anything speaking serve/Protocol.h.
///
/// Usage: spa-serve --socket=PATH [options]
///   --socket=PATH       Unix-domain socket to listen on (required).
///   --jobs=N            Default worker lanes per request (0 = auto).
///   --cache-mb=N        Response cache budget in MiB (default 256).
///   --cache-entries=N   Max cached programs (default 64).
///   --no-incremental    Ablation: every request is a cold run; the
///                       cache is neither read nor written.
///
/// SPA_FAULT=crash@serve arms a one-shot injected fault: the first
/// request fails with a typed error frame and the daemon keeps serving
/// (the robustness suite's kill-mid-request probe).
///
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "serve/Server.h"
#include "support/Fault.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace spa;
using namespace spa::serve;

namespace {

Server *GlobalServer = nullptr;

void onSignal(int) {
  if (GlobalServer)
    GlobalServer->stop();
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--jobs=N] [--cache-mb=N] "
               "[--cache-entries=N] [--no-incremental]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (const char *V = Val("--socket=")) {
      Opts.SocketPath = V;
    } else if (const char *V = Val("--jobs=")) {
      Opts.Service.Analyzer.Jobs = static_cast<unsigned>(std::atoi(V));
    } else if (const char *V = Val("--cache-mb=")) {
      Opts.Service.MaxCacheBytes = std::strtoull(V, nullptr, 10) << 20;
    } else if (const char *V = Val("--cache-entries=")) {
      Opts.Service.MaxCacheEntries = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--no-incremental") {
      Opts.Service.Incremental = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", Arg.c_str());
      return usage(argv[0]);
    }
  }
  if (Opts.SocketPath.empty())
    return usage(argv[0]);

  // SPA_FAULT is parsed exactly once, here, into a one-shot flag: the
  // serving thread never re-reads the environment, so tests can setenv
  // around daemon launches without racing a live reader (tsan-clean).
  FaultPlan Fault = FaultPlan::fromEnv();
  Opts.Service.FaultArmed = Fault.active() &&
                            (Fault.Phase == "serve" || Fault.Phase == "*");

  // Request-scoped tracing: every request's span tree is recorded, with
  // a bounded ring so a long-lived daemon retains only the newest spans
  // (trace.dropped counts what the ring evicted).
  obs::Tracer::global().setRingCapacity(4096);
  obs::Tracer::global().enable();

  Server Srv(std::move(Opts));
  std::string Error;
  if (!Srv.listen(Error)) {
    std::fprintf(stderr, "spa-serve: %s\n", Error.c_str());
    return 1;
  }

  GlobalServer = &Srv;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // A client death mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr, "spa-serve: listening on %s\n",
               Srv.socketPath().c_str());
  Srv.run();
  GlobalServer = nullptr;
  return 0;
}
