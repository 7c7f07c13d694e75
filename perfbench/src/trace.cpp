//===--- trace.cpp - Span recorder around the verifier's layers -----------===//
//
// Linked only into the *_traced programs. The build passes the linker one
// --wrap=<symbol> per __wrap_ function this file defines (CMakeLists.txt
// reads them from its object file), so every call from one verifier
// translation unit into another lands in a __wrap_ function here, which
// records a span and forwards to __real_. The __real_ references are
// strong: if a later change renames or re-types a wrapped function, or a
// toolchain mangles it differently, the traced programs fail to link
// instead of that layer reading zero.
//
// A span is (id, parent, request id, thread, name, tag, value, start, end).
// Nested spans follow the calling thread's stack; the scheduler's queue and
// service spans and the dispatch outcome spans are asynchronous and take
// the span open at submit time as parent. A request id starts at every
// parseModule entered with an empty stack (one module request) and is
// inherited by everything that thread does until the next one.
//
// Spans stay in memory and are written to $PB_TRACE_OUT at exit, one line
// each: "id parent req tid name tag value start_ns end_ns". Forked solver
// workers _exit and never write.
//
//===----------------------------------------------------------------------===//

#include "lang/parser.h"
#include "lang/paths.h"
#include "natural/engine.h"
#include "sched/dispatch.h"
#include "sched/pool.h"
#include "smt/solver.h"
#include "store/store.h"
#include "store/wire.h"
#include "vcgen/vc.h"
#include "verifier/journal.h"
#include "verifier/verifier.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unistd.h>
#include <vector>

using namespace dryad;

namespace {

enum SpanName : unsigned {
  SpParse,
  SpPaths,
  SpVcgen,
  SpNatural,
  SpLower,
  SpSmt2,
  SpKey,
  SpDispatch,   // DispatchEngine::submit call (synchronous part)
  SpObligation, // submit -> OnDone of one obligation (async)
  SpQueue,      // Scheduler submit -> OnStart (async)
  SpService,    // Scheduler OnStart -> completion (async)
  SpSpawns,     // event: worker spawns of one Scheduler
  SpRecycles,   // event: crash recycles of one Scheduler
  SpStoreOpen,
  SpStoreLookup,
  SpStorePut,
  SpVerifyAll,
  SpBusyReply, // event: a DRYE1 busy frame decoded by a client
};
const char *const SpanNames[] = {
    "lang.parse",      "lang.paths",       "vcgen.generate",
    "natural.build",   "smt.lower",        "smt.smt2",
    "verifier.key",    "dispatch.submit",  "dispatch.obligation",
    "sched.queue",     "sched.service",    "sched.spawns",
    "sched.recycles_crash", "store.open",  "store.lookup",
    "store.put",       "verifier.verifyAll", "remote.busy_reply",
};

struct Span {
  unsigned long long Id, Parent, Req;
  unsigned Tid;
  unsigned Name;
  int Tag;
  double Val;
  long long Start, End;
};

long long nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Recorder {
  std::mutex Mu;
  std::vector<Span> Spans;
  pid_t Pid = getpid();
  std::atomic<unsigned long long> NextId{1};
  std::atomic<unsigned long long> NextReq{1};
  std::atomic<unsigned> NextTid{1};

  void add(const Span &S) {
    std::lock_guard<std::mutex> L(Mu);
    Spans.push_back(S);
  }

  void write() {
    const char *Path = std::getenv("PB_TRACE_OUT");
    if (!Path || getpid() != Pid)
      return;
    std::lock_guard<std::mutex> L(Mu);
    FILE *F = std::fopen(Path, "w");
    if (!F)
      return;
    for (const Span &S : Spans)
      std::fprintf(F, "%llu %llu %llu %u %s %d %.9g %lld %lld\n", S.Id,
                   S.Parent, S.Req, S.Tid, SpanNames[S.Name], S.Tag, S.Val,
                   S.Start, S.End);
    std::fclose(F);
  }
};

// Never destroyed: spans closing during static destruction still land
// somewhere valid; the atexit writer runs before that.
Recorder &rec() {
  static Recorder *R = [] {
    auto *New = new Recorder;
    std::atexit([] { rec().write(); });
    return New;
  }();
  return *R;
}

thread_local std::vector<unsigned long long> Stack;
thread_local unsigned long long CurReq = 0;
thread_local unsigned Tid = 0;

unsigned threadId() {
  if (!Tid)
    Tid = rec().NextTid++;
  return Tid;
}

unsigned long long currentParent() { return Stack.empty() ? 0 : Stack.back(); }

/// A synchronous span covering one wrapped call on this thread.
class Scope {
public:
  explicit Scope(SpanName N) {
    S.Name = N;
    S.Id = rec().NextId++;
    S.Parent = currentParent();
    if (Stack.empty() && (N == SpParse || CurReq == 0))
      CurReq = rec().NextReq++;
    S.Req = CurReq;
    S.Tid = threadId();
    S.Tag = 0;
    S.Val = 0;
    Stack.push_back(S.Id);
    S.Start = nowNs();
  }
  ~Scope() {
    S.End = nowNs();
    Stack.pop_back();
    rec().add(S);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  Span S;
};

/// Where an asynchronous span hangs: the caller's open span and request.
struct AsyncOrigin {
  unsigned long long Parent = currentParent();
  unsigned long long Req = CurReq;
};

void addAsync(SpanName N, const AsyncOrigin &O, long long Start, long long End,
              int Tag, double Val) {
  Span S;
  S.Id = rec().NextId++;
  S.Parent = O.Parent;
  S.Req = O.Req;
  S.Tid = threadId();
  S.Name = N;
  S.Tag = Tag;
  S.Val = Val;
  S.Start = Start;
  S.End = End;
  rec().add(S);
}

/// 0 proved/unsat, 1 sat, 2 timeout, 3 any other non-answer.
int outcomeCode(SmtStatus St, FailureKind F) {
  if (St == SmtStatus::Unsat)
    return 0;
  if (St == SmtStatus::Sat)
    return 1;
  return F == FailureKind::Timeout ? 2 : 3;
}

/// Obligation kind from its display name: 0 main, 1 call check, 2 vacuity
/// probe.
int obligationKind(const std::string &Name) {
  if (Name.find("[vacuity") != std::string::npos)
    return 2;
  if (Name.find("] call ") != std::string::npos)
    return 1;
  return 0;
}

} // namespace

#define PB_REAL(Sym) __asm__("__real_" Sym)
#define PB_WRAP(Sym) __asm__("__wrap_" Sym)

#define SYM_PARSE                                                              \
  "_ZN5dryad11parseModuleERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIc" \
  "EEERNS_6ModuleERNS_10DiagEngineE"
#define SYM_PATHS                                                              \
  "_ZN5dryad12extractPathsERNS_6ModuleERKNS_9ProcedureERNS_10DiagEngineE"
#define SYM_VCGEN                                                              \
  "_ZN5dryad5VCGen8generateERKNS_9ProcedureERKNS_9BasicPathERNS_10DiagEngineE"
#define SYM_NATURAL                                                            \
  "_ZN5dryad17buildNaturalProofERNS_6ModuleERKNS_5VCondERKNS_14NaturalOptionsE"
#define SYM_ADD "_ZN5dryad9SmtSolver3addEPKNS_7FormulaE"
#define SYM_ADDNEG "_ZN5dryad9SmtSolver10addNegatedEPKNS_7FormulaE"
#define SYM_SMT2 "_ZN5dryad9SmtSolver6toSmt2B5cxx11Ev"
#define SYM_KEY                                                                \
  "_ZN5dryad7Journal10contentKeyERKNSt7__cxx1112basic_stringIcSt11char_traits" \
  "IcESaIcEEES8_"
#define SYM_DISPATCH                                                           \
  "_ZN5dryad14DispatchEngine6submitENS_14ObligationSpecESt8functionIFvRKNS_14" \
  "DispatchResultEEE"
#define SYM_SUBMIT                                                             \
  "_ZN5dryad9Scheduler6submitENS_14SandboxRequestESt8functionIFvRKNS_9SmtResu" \
  "ltEEES2_IFvvEE"
#define SYM_SUBMITFRONT                                                        \
  "_ZN5dryad9Scheduler11submitFrontENS_14SandboxRequestESt8functionIFvRKNS_9S" \
  "mtResultEEES2_IFvvEE"
#define SYM_SCHED_DTOR "_ZN5dryad9SchedulerD1Ev"
#define SYM_STORE_OPEN                                                         \
  "_ZN5dryad10ProofStore4openERKNSt7__cxx1112basic_stringIcSt11char_traitsIcE" \
  "SaIcEEERS6_"
#define SYM_STORE_LOOKUP                                                       \
  "_ZNK5dryad10ProofStore6lookupERKNSt7__cxx1112basic_stringIcSt11char_traits" \
  "IcESaIcEEE"
#define SYM_STORE_PUT "_ZN5dryad10ProofStore3putERKNS_13JournalRecordE"
#define SYM_VERIFYALL "_ZN5dryad8Verifier9verifyAllERNS_10DiagEngineE"
#define SYM_BUSY                                                               \
  "_ZN5dryad15decodeServeBusyERKNSt7__cxx1112basic_stringIcSt11char_traitsIcE" \
  "SaIcEEERNS_9ServeBusyE"

// Member functions are declared as free functions taking `this` first: the
// Itanium C++ ABI passes both the same way.
namespace pbtrace {

bool realParse(const std::string &, Module &, DiagEngine &) PB_REAL(SYM_PARSE);
bool wrapParse(const std::string &, Module &, DiagEngine &) PB_WRAP(SYM_PARSE);
bool wrapParse(const std::string &In, Module &M, DiagEngine &D) {
  Scope S(SpParse);
  return realParse(In, M, D);
}

std::vector<BasicPath> realPaths(Module &, const Procedure &, DiagEngine &)
    PB_REAL(SYM_PATHS);
std::vector<BasicPath> wrapPaths(Module &, const Procedure &, DiagEngine &)
    PB_WRAP(SYM_PATHS);
std::vector<BasicPath> wrapPaths(Module &M, const Procedure &P,
                                 DiagEngine &D) {
  Scope S(SpPaths);
  std::vector<BasicPath> R = realPaths(M, P, D);
  S.S.Val = static_cast<double>(R.size());
  return R;
}

std::optional<VCond> realVcgen(VCGen *, const Procedure &, const BasicPath &,
                               DiagEngine &) PB_REAL(SYM_VCGEN);
std::optional<VCond> wrapVcgen(VCGen *, const Procedure &, const BasicPath &,
                               DiagEngine &) PB_WRAP(SYM_VCGEN);
std::optional<VCond> wrapVcgen(VCGen *This, const Procedure &P,
                               const BasicPath &BP, DiagEngine &D) {
  Scope S(SpVcgen);
  return realVcgen(This, P, BP, D);
}

NaturalProof realNatural(Module &, const VCond &, const NaturalOptions &)
    PB_REAL(SYM_NATURAL);
NaturalProof wrapNatural(Module &, const VCond &, const NaturalOptions &)
    PB_WRAP(SYM_NATURAL);
NaturalProof wrapNatural(Module &M, const VCond &VC, const NaturalOptions &O) {
  Scope S(SpNatural);
  NaturalProof NP = realNatural(M, VC, O);
  S.S.Val = static_cast<double>(NP.Assertions.size());
  return NP;
}

void realAdd(SmtSolver *, const Formula *) PB_REAL(SYM_ADD);
void wrapAdd(SmtSolver *, const Formula *) PB_WRAP(SYM_ADD);
void wrapAdd(SmtSolver *This, const Formula *F) {
  Scope S(SpLower);
  realAdd(This, F);
}

void realAddNeg(SmtSolver *, const Formula *) PB_REAL(SYM_ADDNEG);
void wrapAddNeg(SmtSolver *, const Formula *) PB_WRAP(SYM_ADDNEG);
void wrapAddNeg(SmtSolver *This, const Formula *F) {
  Scope S(SpLower);
  realAddNeg(This, F);
}

std::string realSmt2(SmtSolver *) PB_REAL(SYM_SMT2);
std::string wrapSmt2(SmtSolver *) PB_WRAP(SYM_SMT2);
std::string wrapSmt2(SmtSolver *This) {
  Scope S(SpSmt2);
  std::string Out = realSmt2(This);
  S.S.Val = static_cast<double>(Out.size());
  return Out;
}

std::string realKey(const std::string &, const std::string &) PB_REAL(SYM_KEY);
std::string wrapKey(const std::string &, const std::string &) PB_WRAP(SYM_KEY);
std::string wrapKey(const std::string &Smt2, const std::string &Config) {
  Scope S(SpKey);
  return realKey(Smt2, Config);
}

void realDispatch(DispatchEngine *, ObligationSpec, DispatchEngine::OnDone)
    PB_REAL(SYM_DISPATCH);
void wrapDispatch(DispatchEngine *, ObligationSpec, DispatchEngine::OnDone)
    PB_WRAP(SYM_DISPATCH);
void wrapDispatch(DispatchEngine *This, ObligationSpec Spec,
                  DispatchEngine::OnDone Done) {
  Scope S(SpDispatch);
  AsyncOrigin O; // parent: this submit span
  int Kind = obligationKind(Spec.Name);
  long long T0 = nowNs();
  auto Wrapped = [O, Kind, T0,
                  Done = std::move(Done)](const DispatchResult &R) {
    addAsync(SpObligation, O, T0, nowNs(),
             Kind * 16 + outcomeCode(R.Status, R.Failure), R.Seconds);
    if (Done)
      Done(R);
  };
  realDispatch(This, std::move(Spec), std::move(Wrapped));
}

namespace {
/// Shared by one scheduler task's OnStart and completion wrappers.
struct TaskTimes {
  AsyncOrigin O;
  long long Submit = nowNs();
  long long Start = 0;
  double Bytes = 0;
};

void wrapTask(SandboxRequest &Req, Scheduler::Completion &Done,
              Scheduler::OnStart &Start) {
  auto T = std::make_shared<TaskTimes>();
  T->Bytes = static_cast<double>(Req.Smt2.size());
  Start = [T, Inner = std::move(Start)] {
    T->Start = nowNs();
    addAsync(SpQueue, T->O, T->Submit, T->Start, 0, 0);
    if (Inner)
      Inner();
  };
  Done = [T, Inner = std::move(Done)](const SmtResult &R) {
    long long Begin = T->Start ? T->Start : T->Submit;
    addAsync(SpService, T->O, Begin, nowNs(), outcomeCode(R.Status, R.Failure),
             T->Bytes);
    if (Inner)
      Inner(R);
  };
}
} // namespace

TaskId realSubmit(Scheduler *, SandboxRequest, Scheduler::Completion,
                  Scheduler::OnStart) PB_REAL(SYM_SUBMIT);
TaskId wrapSubmit(Scheduler *, SandboxRequest, Scheduler::Completion,
                  Scheduler::OnStart) PB_WRAP(SYM_SUBMIT);
TaskId wrapSubmit(Scheduler *This, SandboxRequest Req,
                  Scheduler::Completion Done, Scheduler::OnStart Start) {
  wrapTask(Req, Done, Start);
  return realSubmit(This, std::move(Req), std::move(Done), std::move(Start));
}

TaskId realSubmitFront(Scheduler *, SandboxRequest, Scheduler::Completion,
                       Scheduler::OnStart) PB_REAL(SYM_SUBMITFRONT);
TaskId wrapSubmitFront(Scheduler *, SandboxRequest, Scheduler::Completion,
                       Scheduler::OnStart) PB_WRAP(SYM_SUBMITFRONT);
TaskId wrapSubmitFront(Scheduler *This, SandboxRequest Req,
                       Scheduler::Completion Done, Scheduler::OnStart Start) {
  wrapTask(Req, Done, Start);
  return realSubmitFront(This, std::move(Req), std::move(Done),
                         std::move(Start));
}

void realSchedDtor(Scheduler *) PB_REAL(SYM_SCHED_DTOR);
void wrapSchedDtor(Scheduler *) PB_WRAP(SYM_SCHED_DTOR);
void wrapSchedDtor(Scheduler *This) {
  const PoolStats &St = This->stats();
  AsyncOrigin O;
  long long T = nowNs();
  addAsync(SpSpawns, O, T, T, 0, St.spawns());
  addAsync(SpRecycles, O, T, T, 0, St.RecycledCrash);
  realSchedDtor(This);
}

bool realStoreOpen(ProofStore *, const std::string &, std::string &)
    PB_REAL(SYM_STORE_OPEN);
bool wrapStoreOpen(ProofStore *, const std::string &, std::string &)
    PB_WRAP(SYM_STORE_OPEN);
bool wrapStoreOpen(ProofStore *This, const std::string &Path,
                   std::string &Err) {
  Scope S(SpStoreOpen);
  bool Ok = realStoreOpen(This, Path, Err);
  S.S.Val = static_cast<double>(This->size());
  return Ok;
}

const JournalRecord *realStoreLookup(const ProofStore *, const std::string &)
    PB_REAL(SYM_STORE_LOOKUP);
const JournalRecord *wrapStoreLookup(const ProofStore *, const std::string &)
    PB_WRAP(SYM_STORE_LOOKUP);
const JournalRecord *wrapStoreLookup(const ProofStore *This,
                                     const std::string &Key) {
  Scope S(SpStoreLookup);
  const JournalRecord *R = realStoreLookup(This, Key);
  S.S.Tag = R ? 1 : 0;
  return R;
}

void realStorePut(ProofStore *, const JournalRecord &) PB_REAL(SYM_STORE_PUT);
void wrapStorePut(ProofStore *, const JournalRecord &) PB_WRAP(SYM_STORE_PUT);
void wrapStorePut(ProofStore *This, const JournalRecord &R) {
  Scope S(SpStorePut);
  realStorePut(This, R);
}

std::vector<ProcResult> realVerifyAll(Verifier *, DiagEngine &)
    PB_REAL(SYM_VERIFYALL);
std::vector<ProcResult> wrapVerifyAll(Verifier *, DiagEngine &)
    PB_WRAP(SYM_VERIFYALL);
std::vector<ProcResult> wrapVerifyAll(Verifier *This, DiagEngine &D) {
  Scope S(SpVerifyAll);
  return realVerifyAll(This, D);
}

bool realBusy(const std::string &, ServeBusy &) PB_REAL(SYM_BUSY);
bool wrapBusy(const std::string &, ServeBusy &) PB_WRAP(SYM_BUSY);
bool wrapBusy(const std::string &Payload, ServeBusy &B) {
  AsyncOrigin O;
  long long T = nowNs();
  addAsync(SpBusyReply, O, T, T, 0, 1);
  return realBusy(Payload, B);
}

} // namespace pbtrace
