//===- perfbench/src/FlixdWorkload.cpp - flixd_mixed ----------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// An in-process flixd on loopback TCP, driven in a closed loop by two
// client connections (flixd's callers wait for each reply). Each sends a
// 50/50 mix of 16-row Edge add/retract batches and Dist point queries
// over a 512-node shortest-paths database. The load generator is the
// benchmark's own and speaks only the wire protocol through
// server::Client, so edits to src/server/LoadDriver cannot change the
// load.
//
// As for the batch workloads, the database and each connection's request
// stream are pinned base sequences relabeled by a bijection drawn from
// --seed. At the end, Edge and Dist are scanned and Dist must equal
// Dijkstra over the scanned edges.
//
// The load runs in ten slices, each on a freshly loaded database. Traced
// runs replay the last slice's committed requests, in completion order,
// through IncrementalSolver::update (one batch per request) and through
// Server::handleLine with no socket, to split the round trip by layer.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analyses/ShortestPaths.h"
#include "incremental/IncrementalSolver.h"
#include "lang/Compiler.h"
#include "server/Client.h"
#include "server/Server.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

using namespace perfbench;
using namespace flix;
using namespace flix::server;

namespace {

constexpr uint64_t BaseSeed = 2016;
constexpr int Nodes = 512;
constexpr unsigned Connections = 2;
constexpr unsigned RowsPerBatch = 16;
/// A connection retracts once it has this many of its own edges live.
constexpr size_t MaxLivePerConnection = 256;
/// The load runs in slices; each is followed by set-ups of a second
/// server, 1 + 10 x 3 = 31 setup_s samples in all.
constexpr int Slices = 10;
constexpr int SetupsPerSlice = 3;
/// Bound on replayed requests, so traced runs stay short.
constexpr size_t MaxReplay = 4000;
/// Requests per stream covered by the input fingerprint.
constexpr int FingerprintOps = 2048;
const char *const Db = "g";

/// Fingerprints of the base database and streams, and of the initial
/// model; a mismatch means the workload changed.
const char *const PinInput =
    "Add:16704:df5ca8e3d1d77b3c Edge:1022:2847965b68c956e3 "
    "Query:2031:020293f782b4db23 Retract:16336:94a3ffd458d16fee";
const char *const PinOutput = "Dist:512:261d9a7deb24ee37";

using Edge = std::array<int, 3>; // (x, y, weight)

/// The base database: every node reachable from node 0 over forward
/// edges, plus as many random forward shortcuts.
std::vector<Edge> baseGraph() {
  Rng R(mix64(BaseSeed ^ 0x6a9));
  std::set<Edge> Es;
  for (int Y = 1; Y < Nodes; ++Y)
    Es.insert({int(R.below(uint64_t(Y))), Y, 1 + int(R.below(9))});
  for (int K = 0; K < Nodes; ++K) {
    int X = int(R.below(Nodes - 1));
    int Y = X + 1 + int(R.below(uint64_t(Nodes - 1 - X)));
    Es.insert({X, Y, 1 + int(R.below(9))});
  }
  return {Es.begin(), Es.end()};
}

/// One request of a connection's stream, in base node ids.
struct Op {
  enum Kind { Query, Add, Retract } K;
  int Key = 0;             ///< Query: the Dist node
  std::vector<Edge> Rows;  ///< Add / Retract
};

/// A connection's base request stream: queries and mutations alternate
/// at random; a mutation adds 16 fresh edges of this connection or
/// retracts 16 of its live ones. Connections use disjoint weights (odd
/// for 0, even for 1), so no two connections add the same edge.
class Stream {
public:
  explicit Stream(unsigned Conn) : Conn(Conn), R(mix64(BaseSeed * 31 + Conn)) {}

  Op next() {
    Op O{Op::Query, 0, {}};
    if (R.below(2) == 0) {
      O.Key = int(R.below(Nodes));
      return O;
    }
    bool Retract = Live.size() >= MaxLivePerConnection ||
                   (Live.size() >= RowsPerBatch && R.below(2) == 0);
    O.K = Retract ? Op::Retract : Op::Add;
    while (O.Rows.size() < RowsPerBatch) {
      if (Retract) {
        size_t I = R.below(Live.size());
        O.Rows.push_back(Live[I]);
        LiveSet.erase(Live[I]);
        Live[I] = Live.back();
        Live.pop_back();
        continue;
      }
      int X = int(R.below(Nodes - 1));
      int Y = X + 1 + int(R.below(uint64_t(Nodes - 1 - X)));
      Edge E{X, Y, 1 + 2 * int(R.below(5)) + int(Conn)};
      if (LiveSet.insert(E).second) {
        Live.push_back(E);
        O.Rows.push_back(E);
      }
    }
    return O;
  }

private:
  unsigned Conn;
  Rng R;
  std::vector<Edge> Live;
  std::set<Edge> LiveSet;
};

std::string programSource(const std::vector<Edge> &Edges) {
  std::string S = R"flix(
def leq(e1: Int, e2: Int): Bool = e1 >= e2
def lub(e1: Int, e2: Int): Int = if (e1 <= e2) e1 else e2
def glb(e1: Int, e2: Int): Int = if (e1 >= e2) e1 else e2
let Int<> = (99999999, 0, leq, lub, glb);

rel Edge(x: Int, y: Int, c: Int);
lat Dist(x: Int, Int<>);

Dist(0, 0).
Dist(y, d + c) :- Dist(x, d), Edge(x, y, c).
)flix";
  for (const Edge &E : Edges)
    S += "Edge(" + std::to_string(E[0]) + ", " + std::to_string(E[1]) +
         ", " + std::to_string(E[2]) + ").\n";
  return S;
}

Json request(const char *OpName) {
  Json J = Json::object();
  J.set("op", Json::str(OpName));
  J.set("db", Json::str(Db));
  return J;
}

Json edgeRows(const std::vector<Edge> &Rows) {
  Json A = Json::array();
  for (const Edge &E : Rows) {
    Json Row = Json::array();
    for (int C : E)
      Row.Arr.push_back(Json::integer(C));
    A.Arr.push_back(std::move(Row));
  }
  return A;
}

bool replyOk(const Json &Reply) {
  const Json *Ok = Reply.get("ok");
  return Ok && Ok->isBool() && Ok->B;
}

std::string replyError(const Json &Reply) {
  const Json *Code = Reply.get("code");
  const Json *Err = Reply.get("error");
  return (Code && Code->isStr() ? Code->Str : std::string("?")) + ": " +
         (Err && Err->isStr() ? Err->Str : std::string("?"));
}

/// One connection's samples.
struct ConnStats {
  uint64_t Requests = 0, Failed = 0, Mutations = 0;
  std::vector<double> MutMs, QryMs, BatchMs, WireMs;
  std::string FirstError;
};

/// A committed request kept for the traced replays.
struct Logged {
  uint64_t Seq;
  std::string Line;
  Op::Kind K;
  std::vector<Edge> Rows; ///< relabeled
};

struct Instance {
  std::vector<int> Perm; ///< base node -> relabeled node (0 stays)
  std::vector<Edge> Graph;
  std::string Source;

  Edge map(const Edge &E) const { return {Perm[E[0]], Perm[E[1]], E[2]}; }
};

Instance makeInstance(uint64_t Seed) {
  Instance I;
  Rng R(mix64(Seed ^ 0xf11d));
  I.Perm = permutation(R, Nodes, /*Fixed=*/1);
  for (const Edge &E : baseGraph())
    I.Graph.push_back(I.map(E));
  shuffle(R, I.Graph);
  I.Source = programSource(I.Graph);
  return I;
}

Fingerprint inputFingerprint() {
  Fingerprint Fp;
  for (const Edge &E : baseGraph())
    Fp.add("Edge", {E[0], E[1], E[2]});
  for (unsigned C = 0; C < Connections; ++C) {
    Stream S(C);
    for (int K = 0; K < FingerprintOps; ++K) {
      Op O = S.next();
      if (O.K == Op::Query)
        Fp.add("Query", {C, K, O.Key});
      for (const Edge &E : O.Rows)
        Fp.add(O.K == Op::Add ? "Add" : "Retract", {C, K, E[0], E[1], E[2]});
    }
  }
  return Fp;
}

/// The model as flixd reports it: Edge and Dist scans.
struct Scanned {
  std::vector<Edge> Edges;
  std::map<int, int64_t> Dist;
  bool Ok = false;
  std::string Error;
};

Scanned scan(Client &C) {
  Scanned S;
  std::string Err;
  for (const char *Pred : {"Edge", "Dist"}) {
    Json Req = request("query");
    Req.set("pred", Json::str(Pred));
    Json Reply;
    if (!C.call(Req, Reply, Err)) {
      S.Error = Err;
      return S;
    }
    const Json *Rows = Reply.get("rows");
    if (!replyOk(Reply) || !Rows || !Rows->isArr()) {
      S.Error = replyError(Reply);
      return S;
    }
    for (const Json &Row : Rows->Arr) {
      if (Pred[0] == 'E')
        S.Edges.push_back({int(Row.Arr[0].Int), int(Row.Arr[1].Int),
                           int(Row.Arr[2].Int)});
      else
        S.Dist[int(Row.Arr[0].Int)] = Row.Arr[1].Int;
    }
  }
  S.Ok = true;
  return S;
}

/// Dijkstra over \p S's edges; returns a mismatch description or "".
/// \p DropRow removes one reachable node from the reference (test seam).
std::string checkDist(const Scanned &S, double &DijkstraS,
                      bool DropRow = false) {
  WeightedGraph G;
  G.NumNodes = Nodes;
  for (const Edge &E : S.Edges)
    G.Edges.push_back(E);
  SsspResult Ref;
  {
    trace::Scope Sc("analyses", "runDijkstra");
    Ref = runDijkstra(G, 0);
  }
  DijkstraS = Ref.Seconds;
  if (DropRow)
    for (int V = Nodes - 1; V >= 0; --V)
      if (Ref.Dist[V] >= 0) {
        Ref.Dist[V] = -1;
        break;
      }
  size_t Reachable = 0;
  for (int V = 0; V < Nodes; ++V) {
    if (Ref.Dist[V] < 0)
      continue;
    ++Reachable;
    auto It = S.Dist.find(V);
    if (It == S.Dist.end() || It->second != Ref.Dist[V])
      return "Dist(" + std::to_string(V) + ") is " +
             (It == S.Dist.end() ? std::string("absent")
                                 : std::to_string(It->second)) +
             ", Dijkstra says " + std::to_string(Ref.Dist[V]);
  }
  if (Reachable != S.Dist.size())
    return "Dist has " + std::to_string(S.Dist.size()) + " rows, Dijkstra " +
           std::to_string(Reachable);
  return "";
}

Fingerprint distFingerprint(const Scanned &S, const Instance &I) {
  std::vector<int> Back(Nodes);
  for (int V = 0; V < Nodes; ++V)
    Back[I.Perm[V]] = V;
  Fingerprint Fp;
  for (auto [V, D] : S.Dist)
    Fp.add("Dist", {Back[V], D});
  return Fp;
}

/// The set-up a flixd user waits for: start a server, connect \p Ctl to
/// it and load the program. On failure returns false with \p Err set.
bool setUp(const Instance &I, std::unique_ptr<Server> &Srv, Client &Ctl,
           std::string &Err) {
  Srv = std::make_unique<Server>(ServerOptions());
  if (!Srv->start(Err) || !Ctl.connectTcp("127.0.0.1", Srv->port(), Err))
    return false;
  Json Load = request("load_program");
  Load.set("source", Json::str(I.Source));
  Json Reply;
  if (!Ctl.call(Load, Reply, Err))
    return false;
  if (!replyOk(Reply)) {
    Err = "load_program: " + replyError(Reply);
    return false;
  }
  return true;
}

/// Drives the closed loop: one thread per connection. Connections
/// persist across drive() calls; streams until restart().
class LoadLoop {
public:
  std::string ConnectError;
  double MeasuredS = 0; ///< of the last drive(), after its warm-up
  /// Of the last drive() with \p Log; guarded by LogMu while it runs.
  std::vector<Logged> Committed;

  LoadLoop(uint16_t Port, const Instance &I) : I(I) {
    restart();
    Clients.reserve(Connections);
    for (unsigned C = 0; C < Connections; ++C) {
      Clients.emplace_back();
      std::string Err;
      if (!Clients.back().connectTcp("127.0.0.1", Port, Err))
        ConnectError = Err;
    }
  }

  /// Starts every connection's stream again from its first request.
  void restart() {
    Streams.clear();
    for (unsigned C = 0; C < Connections; ++C)
      Streams.emplace_back(C);
  }

  /// Runs the loop for \p Seconds, tracing if \p Traced and keeping the
  /// committed requests if \p Log; samples of requests started in the
  /// first \p WarmupS are dropped.
  std::vector<ConnStats> drive(double Seconds, double WarmupS, bool Traced,
                               bool Log) {
    this->Log = Log;
    Committed.clear();
    std::vector<ConnStats> Stats(Connections);
    std::atomic<bool> Stop{false};
    Clock::time_point T0 = Clock::now();
    Clock::time_point Measure =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(WarmupS));
    trace::setEnabled(Traced);
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Connections; ++C)
      Threads.emplace_back([&, C] { connection(C, Stop, Measure, Stats[C]); });
    std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
    trace::setEnabled(false);
    MeasuredS = secondsSince(Measure);
    return Stats;
  }

private:
  void connection(unsigned C, const std::atomic<bool> &Stop,
                  Clock::time_point Measure, ConnStats &S) {
    Client &Cl = Clients[C];
    std::string Err;
    while (!Stop.load()) {
      Op O = Streams[C].next();
      Json Req = request(O.K == Op::Query ? "query"
                         : O.K == Op::Add ? "add_facts"
                                          : "retract_facts");
      std::vector<Edge> Rows;
      if (O.K == Op::Query) {
        Req.set("pred", Json::str("Dist"));
        Json Key = Json::array();
        Key.Arr.push_back(Json::integer(I.Perm[O.Key]));
        Req.set("key", std::move(Key));
      } else {
        for (const Edge &E : O.Rows)
          Rows.push_back(I.map(E));
        Req.set("pred", Json::str("Edge"));
        Req.set("rows", edgeRows(Rows));
      }
      uint64_t OpId = NextOp.fetch_add(1) + 1;
      trace::setOp(OpId);
      Clock::time_point T0 = Clock::now();
      Json Reply;
      bool Sent;
      {
        trace::Scope Sc("client", "Client::call");
        Sent = Cl.call(Req, Reply, Err);
      }
      double Ms = 1e3 * secondsSince(T0);
      ++S.Requests;
      if (!Sent) {
        ++S.Failed;
        if (S.FirstError.empty())
          S.FirstError = "transport: " + Err;
        return;
      }
      bool Ok = replyOk(Reply) &&
                (O.K != Op::Query || (Reply.get("found") &&
                                      Reply.get("found")->isBool()));
      if (!Ok) {
        ++S.Failed;
        if (S.FirstError.empty())
          S.FirstError = replyError(Reply);
        continue;
      }
      if (O.K != Op::Query) {
        ++S.Mutations;
        if (Log) {
          std::lock_guard<std::mutex> Lk(LogMu);
          Committed.push_back(
              {NextSeq++, writeJson(Req), O.K, std::move(Rows)});
        }
      }
      if (T0 < Measure)
        continue;
      if (O.K == Op::Query) {
        S.QryMs.push_back(Ms);
        continue;
      }
      S.MutMs.push_back(Ms);
      const Json *B = Reply.get("batch_seconds");
      double BatchMs = B && B->isNum() ? 1e3 * B->num() : 0;
      S.BatchMs.push_back(BatchMs);
      S.WireMs.push_back(Ms - BatchMs);
    }
  }

  const Instance &I;
  bool Log = false;
  std::vector<Stream> Streams;
  std::vector<Client> Clients;
  std::atomic<uint64_t> NextOp{0};
  std::mutex LogMu;
  uint64_t NextSeq = 0;
};

struct Merged {
  uint64_t Requests = 0, Failed = 0, Mutations = 0;
  std::vector<double> MutMs, QryMs, BatchMs, WireMs;
  std::string FirstError;
};

Merged merge(const std::vector<ConnStats> &All) {
  Merged M;
  for (const ConnStats &S : All) {
    M.Requests += S.Requests;
    M.Failed += S.Failed;
    M.Mutations += S.Mutations;
    M.MutMs.insert(M.MutMs.end(), S.MutMs.begin(), S.MutMs.end());
    M.QryMs.insert(M.QryMs.end(), S.QryMs.begin(), S.QryMs.end());
    M.BatchMs.insert(M.BatchMs.end(), S.BatchMs.begin(), S.BatchMs.end());
    M.WireMs.insert(M.WireMs.end(), S.WireMs.begin(), S.WireMs.end());
    if (M.FirstError.empty())
      M.FirstError = S.FirstError;
  }
  return M;
}

int64_t statInt(const Json &Stats, const char *Name) {
  const Json *DbJ = Stats.get("db");
  const Json *J = DbJ ? DbJ->get(Name) : nullptr;
  return J && J->isInt() ? J->Int : 0;
}

/// Replays the committed mutations through a fresh IncrementalSolver,
/// one update per request. Fills the fixpoint, runtime, vm, lang and
/// incremental per-layer metrics.
void replayIncremental(const Instance &I, const std::vector<Logged> &Log,
                       RunResult &Out) {
  trace::setEnabled(true);
  ValueFactory F;
  FlixCompiler C(F);
  Clock::time_point T0 = Clock::now();
  {
    trace::Scope S("lang", "FlixCompiler::compile");
    if (!C.compile(I.Source, "flixd-mixed.flix")) {
      Out.wrong("replay compile failed: " + C.diagnostics());
      return;
    }
  }
  double CompileMs = 1e3 * secondsSince(T0);
  IncrementalSolver IS(C.program());
  PredId EdgeP = *C.predicate("Edge");
  {
    trace::Scope S("incremental", "IncrementalSolver::update");
    IS.update();
  }
  SolveStats Sum;
  uint64_t Deleted = 0, Rederived = 0;
  std::vector<double> UpdateMs;
  size_t LastMemory = 0;
  for (size_t K = 0; K < Log.size() && K < MaxReplay; ++K) {
    std::vector<std::vector<Value>> Rows;
    for (const Edge &E : Log[K].Rows)
      Rows.push_back({F.integer(E[0]), F.integer(E[1]), F.integer(E[2])});
    if (Log[K].K == Op::Add)
      IS.addFacts(EdgeP, Rows);
    else
      IS.retractFacts(EdgeP, Rows);
    trace::setOp(Log[K].Seq + 1);
    UpdateStats U;
    {
      trace::Scope S("incremental", "IncrementalSolver::update");
      Clock::time_point T1 = Clock::now();
      U = IS.update();
      UpdateMs.push_back(1e3 * secondsSince(T1));
    }
    if (!U.ok())
      Out.wrong("replayed update did not reach a fixpoint: " + U.Error);
    Sum.RuleFirings += U.RuleFirings;
    Sum.FactsDerived += U.FactsDerived;
    Sum.Iterations += U.Iterations;
    Sum.ReplanEvents += U.ReplanEvents;
    Sum.MemoHits += U.MemoHits;
    Sum.MemoMisses += U.MemoMisses;
    Sum.VmCalls += U.VmCalls;
    Sum.VmInlineCacheHits += U.VmInlineCacheHits;
    Sum.InterpFallbacks += U.InterpFallbacks;
    Deleted += U.CellsDeleted;
    Rederived += U.CellsRederived;
    LastMemory = U.MemoryBytes;
  }
  trace::setEnabled(false);
  double UpdateS = 0;
  for (double Ms : UpdateMs)
    UpdateS += Ms / 1e3;
  double Firings = double(std::max<uint64_t>(Sum.RuleFirings, 1));
  double Batches = double(std::max<size_t>(UpdateMs.size(), 1));
  uint64_t Memo = Sum.MemoHits + Sum.MemoMisses;
  Out.metric("fixpoint.rule_firings", "count", double(Sum.RuleFirings));
  Out.metric("fixpoint.facts_derived", "count", double(Sum.FactsDerived));
  Out.metric("fixpoint.iterations", "count", double(Sum.Iterations));
  Out.metric("fixpoint.ns_per_firing", "ns", UpdateS * 1e9 / Firings);
  Out.metric("fixpoint.derive_yield", "1", double(Sum.FactsDerived) / Firings);
  Out.metric("fixpoint.replan_events", "count", double(Sum.ReplanEvents));
  Out.metric("fixpoint.memo_hit_ratio", "1",
             Memo ? double(Sum.MemoHits) / double(Memo) : 0);
  Out.metric("fixpoint.memory_mb", "MB", double(LastMemory) / 1048576.0);
  Out.metric("runtime.arena_mb", "MB", double(F.memoryBytes()) / 1048576.0);
  Out.metric("lang.compile_ms", "ms", CompileMs);
  Out.metric("vm.calls", "count", double(Sum.VmCalls));
  Out.metric("vm.ic_hits_per_call", "1",
             Sum.VmCalls ? double(Sum.VmInlineCacheHits) / double(Sum.VmCalls)
                         : 0);
  Out.metric("vm.interp_fallbacks", "count", double(Sum.InterpFallbacks));
  Out.metric("incremental.update_ms", "ms", median(UpdateMs));
  Out.metric("incremental.cells_deleted_per_batch", "count",
             double(Deleted) / Batches);
  Out.metric("incremental.rederive_yield", "1",
             Deleted ? double(Rederived) / double(Deleted) : 0);
  Out.info("replayed_batches", std::to_string(UpdateMs.size()));
}

/// Replays the load and the committed mutations through
/// Server::handleLine of an unstarted server; returns the median
/// mutation time in ms.
double replayServerCore(const Instance &I, const std::vector<Logged> &Log,
                        RunResult &Out) {
  Server Srv{ServerOptions()};
  Json Load = request("load_program");
  Load.set("source", Json::str(I.Source));
  Json Reply;
  std::string Err;
  if (!parseJson(Srv.handleLine(writeJson(Load)), Reply, Err) ||
      !replyOk(Reply)) {
    Out.wrong("replay load_program failed: " + replyError(Reply));
    return 0;
  }
  trace::setEnabled(true);
  std::vector<double> Ms;
  for (size_t K = 0; K < Log.size() && K < MaxReplay; ++K) {
    trace::setOp(Log[K].Seq + 1);
    std::string Line;
    Clock::time_point T0 = Clock::now();
    {
      trace::Scope S("server", "Server::handleLine");
      Line = Srv.handleLine(Log[K].Line);
    }
    Ms.push_back(1e3 * secondsSince(T0));
    if (!parseJson(Line, Reply, Err) || !replyOk(Reply))
      Out.wrong("replayed request failed: " + Line);
  }
  trace::setEnabled(false);
  return median(Ms);
}

} // namespace

void perfbench::runFlixdMixed(const RunOptions &O, RunResult &Out) {
  Instance I = makeInstance(O.Seed);
  checkPin(Out, "input", inputFingerprint(), PinInput);

  // The main server's set-up is the first sample; the others start and
  // load a second server beside the idle main one between load slices,
  // so the median covers the whole run and not one short window of it.
  std::vector<double> SetupS;
  std::unique_ptr<Server> Srv;
  Client Ctl;
  std::string SetupErr;
  auto setUpOnce = [&](std::unique_ptr<Server> &S, Client &C) {
    Clock::time_point T0 = Clock::now();
    if (!setUp(I, S, C, SetupErr)) {
      Out.wrong("set-up failed: " + SetupErr);
      return false;
    }
    SetupS.push_back(secondsSince(T0));
    return true;
  };
  if (!setUpOnce(Srv, Ctl))
    return;
  // The initial model, before any mutation, is pinned.
  Scanned Initial = scan(Ctl);
  double DijkstraS = 0;
  std::string Bad =
      Initial.Ok
          ? checkDist(Initial, DijkstraS, O.Fault == "drop-reference-row")
          : Initial.Error;
  if (!Bad.empty())
    Out.wrong("initial model: " + Bad);
  checkPin(Out, "output", distFingerprint(Initial, I), PinOutput);

  LoadLoop Drv(Srv->port(), I);
  if (!Drv.ConnectError.empty())
    Out.wrong("client connect failed: " + Drv.ConnectError);
  // Every slice starts from the loaded database and the start of each
  // stream. The server's memory grows with every committed mutation, so
  // without the reload peak_rss_mb and throughput would follow how many
  // mutations the host's speed let a run complete. Traced runs alternate
  // untraced and traced slices, so both kinds see the same machine
  // conditions; the last, traced slice's requests are replayed.
  double Warmup = std::min(1.0, 0.1 * O.Seconds);
  std::vector<ConnStats> ByKind[2];
  double MeasuredS = 0;
  for (int K = 0; K < Slices; ++K) {
    bool On = O.Traced && K % 2 == 1;
    if (K > 0) {
      Json Reload = request("load_program");
      Reload.set("source", Json::str(I.Source));
      Reload.set("replace", Json::boolean(true));
      Json Reply;
      std::string Err;
      if (!Ctl.call(Reload, Reply, Err) || !replyOk(Reply)) {
        Out.wrong("reload failed: " + Err + replyError(Reply));
        break;
      }
      Drv.restart();
    }
    for (ConnStats &S : Drv.drive(O.Seconds / Slices, K == 0 ? Warmup : 0,
                                  On, On && K == Slices - 1))
      ByKind[On].push_back(std::move(S));
    if (!On)
      MeasuredS += Drv.MeasuredS;
    for (int R = 0; R < SetupsPerSlice; ++R) {
      std::unique_ptr<Server> Extra;
      Client C;
      if (!setUpOnce(Extra, C))
        break;
    }
  }
  std::vector<Merged> Phases = {merge(ByKind[0])};
  if (O.Traced)
    Phases.push_back(merge(ByKind[1]));

  Json StatsReq = Json::object();
  StatsReq.set("op", Json::str("stats"));
  StatsReq.set("db", Json::str(Db));
  Json Stats;
  std::string Err;
  if (!Ctl.call(StatsReq, Stats, Err) || !replyOk(Stats))
    Out.wrong("stats failed: " + Err + replyError(Stats));
  Scanned Final = scan(Ctl);
  std::vector<double> RefS;
  Bad = Final.Ok ? checkDist(Final, DijkstraS) : Final.Error;
  RefS.push_back(DijkstraS);
  Ctl.close();
  Srv->stop();
  Srv->wait();
  if (!Bad.empty())
    Out.wrong("final model: " + Bad);

  for (const Merged &M : Phases) {
    Out.Attempted += M.Requests;
    Out.Failed += M.Failed;
    if (!M.FirstError.empty())
      Out.wrong("request failed: " + M.FirstError);
  }
  Out.Attempted += 2; // the initial and the final model check
  const Merged &M = Phases.back(); // traced samples in traced runs
  int64_t Batches = statInt(Stats, "update_batches");
  int64_t MutReqs = statInt(Stats, "mutation_requests");
  Out.info("server.update_batches", std::to_string(Batches));
  Out.info("server.coalesced_requests",
           std::to_string(statInt(Stats, "coalesced_requests")));
  Out.info("samples.mutations", std::to_string(M.MutMs.size()));
  Out.info("mutation_p99_ms", jsonNum(percentile(M.MutMs, 0.99)));
  Out.info("samples.queries", std::to_string(M.QryMs.size()));
  Out.info("query_p50_ms", jsonNum(median(M.QryMs)));
  Out.info("query_p99_ms", jsonNum(percentile(M.QryMs, 0.99)));
  Out.info("measured_s", jsonNum(MeasuredS));
  Out.info("fingerprint.final_dist", jsonStr(distFingerprint(Final, I).str()));

  if (!O.Traced) {
    Out.metric("setup_s", "s", median(SetupS));
    Out.metric("solve_s", "s", median(M.BatchMs) / 1e3);
    Out.metric("peak_rss_mb", "MB", peakRssMb());
    Out.metric("mutations_per_s", "1/s", double(M.MutMs.size()) / MeasuredS);
    Out.metric("mutation_p50_ms", "ms", median(M.MutMs));
    return;
  }

  // Traced run: the traced slices' samples, then the replays.
  std::vector<Logged> Log = std::move(Drv.Committed);
  std::sort(Log.begin(), Log.end(),
            [](const Logged &A, const Logged &B) { return A.Seq < B.Seq; });
  Out.info("trace.spans", std::to_string(trace::spans().size()));
  replayIncremental(I, Log, Out);
  double CoreMs = replayServerCore(I, Log, Out);
  trace::setEnabled(true);
  for (int K = 0; K < 2; ++K) {
    double S = 0;
    checkDist(Final, S);
    RefS.push_back(S);
  }
  trace::setEnabled(false);
  double SolveS = median(M.BatchMs) / 1e3;
  Out.metric("parallel.tasks", "count", 0);
  Out.metric("parallel.steal_ratio", "1", 0);
  Out.metric("parallel.merge_collisions", "count", 0);
  Out.metric("parallel.index_fallbacks", "count", 0);
  Out.metric("parallel.speedup_vs_seq", "x", 0);
  Out.metric("analyses.reference_s", "s", median(RefS));
  Out.metric("analyses.overhead_x", "x",
             SolveS / std::max(median(RefS), 1e-12));
  Out.metric("incremental.batch_p50_ms", "ms", median(M.BatchMs));
  Out.metric("incremental.batch_p99_ms", "ms", percentile(M.BatchMs, 0.99));
  Out.metric("server.mutation_p99_ms", "ms", percentile(M.MutMs, 0.99));
  Out.metric("server.query_p50_ms", "ms", median(M.QryMs));
  Out.metric("server.query_p99_ms", "ms", percentile(M.QryMs, 0.99));
  Out.metric("server.wire_overhead_p50_ms", "ms", median(M.WireMs));
  Out.metric("server.wire_overhead_p99_ms", "ms", percentile(M.WireMs, 0.99));
  Out.metric("server.core_ms", "ms", CoreMs);
  Out.metric("server.coalesced_ratio", "1",
             MutReqs ? double(statInt(Stats, "coalesced_requests")) /
                           double(MutReqs)
                     : 0);
  Out.metric("server.rows_per_batch", "count",
             Batches ? double(statInt(Stats, "rows_staged_total")) /
                           double(Batches)
                     : 0);
  Out.metric("trace.overhead_ms", "ms",
             median(Phases[1].MutMs) - median(Phases[0].MutMs));
  trace::recordSelfTimes(Out);
}
