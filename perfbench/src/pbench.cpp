//===--- pbench.cpp - Benchmark harness for the verifier ------------------===//
//
// Drives the verifier through its public API, one subcommand per job:
//
//   pbench batch [opts] FILE...
//       What `dryadv [opts] FILE...` does: per file, parse the module and
//       run Verifier::verifyAll (the store, when given, is opened per file
//       exactly as the CLI does). Prints one JSON line per file with every
//       obligation's outcome and the file's wall time, then one line with
//       this process's peak RSS.
//   pbench client --socket S --plan P
//       Closed-loop clients of a `dryadv --serve` daemon. The plan lists,
//       per client, the module texts to send in order; every client sends
//       its next request when the previous answer is in. A pinger thread
//       samples the daemon's health. Prints one JSON line per request and a
//       summary.
//   pbench keys FILE
//       Plans FILE the way the verifier keys obligations and prints
//       "proc<TAB>obligation<TAB>content-key" per main obligation and call
//       check.
//
//===----------------------------------------------------------------------===//

#include "lang/parser.h"
#include "lang/paths.h"
#include "natural/engine.h"
#include "smt/solver.h"
#include "store/remote.h"
#include "vcgen/vc.h"
#include "verifier/journal.h"
#include "verifier/verifier.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace dryad;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

std::string jsonEscape(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out + "\"";
}

const char *statusName(SmtStatus S) {
  switch (S) {
  case SmtStatus::Unsat:
    return "unsat";
  case SmtStatus::Sat:
    return "sat";
  case SmtStatus::Unknown:
    break;
  }
  return "unknown";
}

long peakRssKb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss;
}

int usage() {
  std::fprintf(stderr,
               "usage: pbench batch [--jobs N] [--timeout MS] [--attempts N] "
               "[--no-vacuity] [--store PATH] FILE...\n"
               "       pbench client --socket S --plan FILE\n"
               "       pbench keys FILE\n");
  return 2;
}

int runBatch(int Argc, char **Argv) {
  VerifyOptions Opts;
  std::vector<std::string> Files;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> unsigned {
      return I + 1 < Argc ? static_cast<unsigned>(std::atoi(Argv[++I])) : 0;
    };
    if (A == "--jobs")
      Opts.Jobs = std::max(1u, Next());
    else if (A == "--timeout")
      Opts.TimeoutMs = Next();
    else if (A == "--attempts")
      Opts.Attempts = Next();
    else if (A == "--no-vacuity")
      Opts.CheckVacuity = false;
    else if (A == "--store" && I + 1 < Argc)
      Opts.StorePath = Argv[++I];
    else if (!A.empty() && A[0] == '-')
      return usage();
    else
      Files.push_back(A);
  }
  if (Files.empty())
    return usage();

  for (const std::string &File : Files) {
    Clock::time_point T0 = Clock::now();
    std::string Text;
    if (!readFile(File, Text)) {
      std::fprintf(stderr, "pbench: cannot read %s\n", File.c_str());
      return 2;
    }
    Module M;
    DiagEngine Diags;
    if (!parseModule(Text, M, Diags)) {
      std::fprintf(stderr, "%s:\n%s", File.c_str(), Diags.str().c_str());
      return 2;
    }
    Verifier V(M, Opts);
    std::vector<ProcResult> Results = V.verifyAll(Diags);
    double Seconds = secondsSince(T0);

    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), ", \"seconds\": %.6f", Seconds);
    std::string Line = "{\"file\": " + jsonEscape(File) + Buf;
    Line += ", \"store_error\": " + jsonEscape(V.storeError());
    Line += ", \"routines\": [";
    for (size_t R = 0; R != Results.size(); ++R) {
      const ProcResult &PR = Results[R];
      Line += R ? ", " : "";
      Line += "{\"name\": " + jsonEscape(PR.Proc) +
              ", \"verified\": " + (PR.Verified ? "true" : "false") +
              ", \"obligations\": [";
      for (size_t O = 0; O != PR.Obligations.size(); ++O) {
        const ObligationResult &OR = PR.Obligations[O];
        Line += O ? ", " : "";
        Line += "{\"name\": " + jsonEscape(OR.Name) + ", \"status\": \"" +
                statusName(OR.Status) + "\", \"failure\": \"" +
                failureKindName(OR.Failure) + "\"}";
      }
      Line += "]}";
    }
    Line += "]}";
    std::printf("%s\n", Line.c_str());
    std::fflush(stdout);
  }
  std::printf("{\"peak_rss_kb\": %ld}\n", peakRssKb());
  return 0;
}

struct PlannedRequest {
  unsigned Block = 0;
  std::string Kind; // "hit" or "edit"
  std::string Label;
  std::string Source;
};

int runClient(int Argc, char **Argv) {
  std::string Socket, PlanPath;
  for (int I = 0; I + 1 < Argc; I += 2) {
    std::string A = Argv[I];
    if (A == "--socket")
      Socket = Argv[I + 1];
    else if (A == "--plan")
      PlanPath = Argv[I + 1];
    else
      return usage();
  }
  if (Socket.empty() || PlanPath.empty())
    return usage();

  // Plan lines: "<client> <block> <kind> <label> <module path>".
  std::vector<std::vector<PlannedRequest>> Plans;
  {
    std::ifstream In(PlanPath);
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream Ls(Line);
      unsigned Client;
      PlannedRequest Q;
      std::string Path;
      if (!(Ls >> Client >> Q.Block >> Q.Kind >> Q.Label >> Path))
        continue;
      if (!readFile(Path, Q.Source)) {
        std::fprintf(stderr, "pbench: cannot read %s\n", Path.c_str());
        return 2;
      }
      if (Plans.size() <= Client)
        Plans.resize(Client + 1);
      Plans[Client].push_back(std::move(Q));
    }
  }
  if (Plans.empty())
    return usage();

  RemoteOptions RO;
  RO.SocketPath = Socket;

  std::mutex OutMu;
  std::atomic<bool> Done{false};
  const Clock::time_point Start = Clock::now();

  auto ClientMain = [&](unsigned C) {
    for (const PlannedRequest &Q : Plans[C]) {
      ServeResponse Resp;
      std::string Err;
      double T0 = secondsSince(Start);
      RemoteStatus St = remoteVerify(RO, Q.Label, Q.Source, Resp, Err);
      double T1 = secondsSince(Start);
      const char *StName = St == RemoteStatus::Ok           ? "ok"
                           : St == RemoteStatus::Overloaded ? "overloaded"
                                                            : "error";
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"client\": %u, \"block\": %u, \"t0\": %.6f, "
                    "\"t1\": %.6f, \"status\": \"%s\"",
                    C, Q.Block, T0, T1, StName);
      std::string Line = Buf;
      Line += ", \"kind\": " + jsonEscape(Q.Kind) +
              ", \"label\": " + jsonEscape(Q.Label) +
              ", \"report\": " + jsonEscape(Resp.Report) +
              ", \"json\": " + jsonEscape(Resp.Json) + "}";
      std::lock_guard<std::mutex> L(OutMu);
      std::printf("%s\n", Line.c_str());
    }
  };

  // Health sampler: the admission queue's depth is only visible in pings.
  unsigned MaxQueued = 0, Pings = 0, PingFailures = 0;
  double PingSeconds = 0;
  std::thread Pinger([&] {
    while (!Done.load()) {
      ServeHealth H;
      std::string Err;
      Clock::time_point T0 = Clock::now();
      if (remotePing(RO, H, Err)) {
        PingSeconds += secondsSince(T0);
        ++Pings;
        MaxQueued = std::max(MaxQueued, H.Queued);
      } else {
        ++PingFailures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != Plans.size(); ++C)
    Clients.emplace_back(ClientMain, C);
  for (std::thread &T : Clients)
    T.join();
  double Window = secondsSince(Start);
  Done.store(true);
  Pinger.join();
  std::printf("{\"summary\": true, \"window_s\": %.6f, \"ping_failures\": %u, "
              "\"ping_mean_s\": %.6f, \"max_queued\": %u}\n",
              Window, PingFailures, Pings ? PingSeconds / Pings : 0.0,
              MaxQueued);
  return 0;
}

int runKeys(int Argc, char **Argv) {
  if (Argc != 1)
    return usage();
  std::string Text;
  if (!readFile(Argv[0], Text)) {
    std::fprintf(stderr, "pbench: cannot read %s\n", Argv[0]);
    return 2;
  }
  Module M;
  DiagEngine Diags;
  if (!parseModule(Text, M, Diags)) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  // The verifier's key: the full-tactics query (assumptions, strengthening,
  // negated goal) rendered to SMT-LIB2, hashed with the tactic set.
  const NaturalOptions Natural;
  const std::string Config = "tactics=ufa";
  for (const Procedure &P : M.Procs) {
    if (!P.HasBody)
      continue;
    VCGen Gen(M);
    for (const BasicPath &BP : extractPaths(M, P, Diags)) {
      std::optional<VCond> VC = Gen.generate(P, BP, Diags);
      if (!VC)
        continue;
      NaturalProof NP = buildNaturalProof(M, *VC, Natural);
      auto Key = [&](size_t NumAssumptions, const Formula *Goal) {
        SmtSolver S;
        for (size_t I = 0; I != NumAssumptions; ++I)
          S.add(VC->Assumptions[I]);
        for (const Formula *F : NP.Assertions)
          S.add(F);
        S.addNegated(Goal);
        return Journal::contentKey(S.toSmt2(), Config);
      };
      for (const CallCheck &C : VC->CallChecks)
        std::printf("%s\t%s\t%s\n", P.Name.c_str(), C.Desc.c_str(),
                    Key(C.NumAssumptions, C.Goal).c_str());
      std::printf("%s\t%s\t%s\n", P.Name.c_str(), VC->Name.c_str(),
                  Key(VC->Assumptions.size(), VC->Goal).c_str());
    }
  }
  return Diags.hasErrors() ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  if (Cmd == "batch")
    return runBatch(Argc - 2, Argv + 2);
  if (Cmd == "client")
    return runClient(Argc - 2, Argv + 2);
  if (Cmd == "keys")
    return runKeys(Argc - 2, Argv + 2);
  return usage();
}
