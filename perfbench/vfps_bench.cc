// vfps_bench — runs one input instance of the benchmark.
//
// Runs the public VFPS-SM pipeline (data::LoadPreset -> split / standardize /
// partition -> he::Create*Backend -> core::CreateSelector()->Select ->
// vfl::RunDownstreamTraining) and prints one JSON object on stdout.
// perfbench/run.py picks the instances, repeats the jobs and checks them.
//
//   vfps_bench reference <flags>  exact plaintext reference selection:
//                                 VFPS-SM-BASE, plain backend, unsharded,
//                                 1 thread, no faults, the participants the
//                                 workload's fault plan removes quarantined
//                                 up front
//   vfps_bench job <flags>        one untraced end-to-end job (the program
//                                 runs with observability off)
//   vfps_bench layers <flags>     per-layer pass: untraced/traced Select
//                                 pairs, a decomposed selection wrapped in the
//                                 benchmark's own spans, and replays of each
//                                 layer's public calls on the run's inputs
//
// Flags (all --key=value): --workload=NAME (one of the four below) and
// --seed=N (generates the instance's inputs); layers mode also takes
// --pair-seconds=S (keep adding untraced/traced Select pairs for S seconds,
// at least kMinPairs) and --trace-out=FILE (write the benchmark's own spans
// as chrome://tracing JSON).
// Every failure is reported as {"ok": false, "error": ...} and exit code 1.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/greedy.h"
#include "core/selector.h"
#include "core/similarity.h"
#include "core/submodular.h"
#include "data/partitioner.h"
#include "data/presets.h"
#include "data/scaler.h"
#include "he/backend.h"
#include "ml/kernels.h"
#include "net/channel.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/fagin.h"
#include "topk/shard_merge.h"
#include "vfl/fed_knn.h"
#include "vfl/selection_cache.h"
#include "vfl/split_train.h"

namespace {

using namespace vfps;  // NOLINT(build/namespaces)

// Queries whose inputs the layers mode replays, and the shortest time one
// replay measurement repeats a call for.
constexpr size_t kReplayQueries = 4;
constexpr double kMinReplaySeconds = 0.02;
constexpr size_t kMinPairs = 2;

// Shared by every workload: P participants, |S| selected, k neighbours, and
// the fault plan's seed.
constexpr size_t kParticipants = 8;
constexpr size_t kSelect = 4;
constexpr size_t kK = 10;
constexpr uint64_t kFaultSeed = 7;

struct Workload {
  std::string dataset = "SUSY";
  double scale = 0.5;  // SUSY: 19,200 train rows
  core::SelectionMethod method = core::SelectionMethod::kVfpsSm;
  bool ckks = true;
  size_t queries = 16;
  size_t query_group = 1;
  size_t shards = 1;
  size_t threads = 1;
  net::FaultSpec faults;
  std::vector<size_t> departs;      // participants the fault plan removes
  std::vector<size_t> quarantined;  // quarantined up front (reference only)
  uint64_t seed = 42;
  double pair_seconds = 0.0;
  std::string trace_out;

  bool topk() const { return method == core::SelectionMethod::kVfpsSm; }
};

// The benchmark's workloads. |Q| is scaled down from the ROADMAP cells so
// that one job takes about a second; the shape of each cell is kept.
Result<Workload> NamedWorkload(const std::string& name) {
  Workload w;
  if (name == "fagin-ckks") {
    w.queries = 12;
  } else if (name == "fagin-plain-sharded") {
    w.scale = 2.0;
    w.ckks = false;
    w.shards = 4;
    w.queries = 16;
    w.threads = 2;
  } else if (name == "churn-repair-ckks") {
    w.queries = 8;
    VFPS_ASSIGN_OR_RETURN(w.faults, net::ParseFaultSpec("drop=0.05,leave=3@40"));
    VFPS_RETURN_NOT_OK(w.faults.Validate());
    w.departs = {3};
  } else if (name == "base-grouped-ckks") {
    w.dataset = "Bank";
    w.scale = 0.25;
    w.method = core::SelectionMethod::kVfpsSmBase;
    w.query_group = 0;  // auto: G=2
    w.queries = 50;
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  return w;
}

Result<Workload> ParseFlags(int argc, char** argv) {
  std::optional<Workload> w;
  std::optional<uint64_t> seed;
  double pair_seconds = 0.0;
  std::string trace_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      VFPS_ASSIGN_OR_RETURN(w, NamedWorkload(value));
    } else if (key == "seed") {
      VFPS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
      if (v < 0) return Status::InvalidArgument("negative seed: " + value);
      seed = static_cast<uint64_t>(v);
    } else if (key == "pair-seconds") {
      VFPS_ASSIGN_OR_RETURN(pair_seconds, ParseDouble(value));
    } else if (key == "trace-out") {
      trace_out = value;
    } else {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  if (!w || !seed) return Status::InvalidArgument("--workload and --seed are required");
  w->seed = *seed;
  w->pair_seconds = pair_seconds;
  w->trace_out = trace_out;
  return *w;
}

vfl::FedKnnConfig KnnConfig(const Workload& w) {
  vfl::FedKnnConfig knn;
  knn.k = kK;
  knn.num_queries = w.queries;
  knn.query_group = w.query_group;
  knn.shards = w.shards;
  knn.quarantined = w.quarantined;
  return knn;
}

// Flat JSON object writer: numbers keep all their digits (%.17g).
class Json {
 public:
  void Num(const std::string& key, double v) {
    Key(key);
    out_ += std::isfinite(v) ? StrFormat("%.17g", v) : std::string("null");
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    out_ += '"';
  }
  void Bool(const std::string& key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Ids(const std::string& key, const std::vector<size_t>& ids) {
    Key(key);
    out_ += '[';
    for (size_t i = 0; i < ids.size(); ++i) {
      out_ += StrFormat(i == 0 ? "%zu" : ",%zu", ids[i]);
    }
    out_ += ']';
  }
  void Object(const std::string& key, const Json& inner) {
    Key(key);
    out_ += inner.str();
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!out_.empty()) out_ += ", ";
    out_ += '"' + key + "\": ";
  }
  std::string out_;
};

// CPU seconds of all the process's threads so far.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // kilobytes on Linux
}

he::HeOpStats Delta(const he::HeOpStats& after, const he::HeOpStats& before) {
  he::HeOpStats d;
  d.encrypt_ops = after.encrypt_ops - before.encrypt_ops;
  d.decrypt_ops = after.decrypt_ops - before.decrypt_ops;
  d.add_ops = after.add_ops - before.add_ops;
  d.values_encrypted = after.values_encrypted - before.values_encrypted;
  d.values_decrypted = after.values_decrypted - before.values_decrypted;
  d.values_added = after.values_added - before.values_added;
  return d;
}

// Wall time and call count per layer call, measured with a steady clock.
// With tracing on, every timed interval is also a span of the benchmark's own
// tracer (never the program's), so the spans and the numbers cover the same
// intervals.
class Ledger {
 public:
  explicit Ledger(bool tracing) : tracing_(tracing) {}

  // Calls `fn` (returning Status) once inside a span named `name`.
  template <typename Fn>
  Status Time(const char* name, Fn&& fn) {
    return Repeat(name, 0.0, std::forward<Fn>(fn));
  }

  // Calls `fn` inside one span until `min_seconds` have passed (at least
  // once), so calls far shorter than a span's own cost are still resolved.
  template <typename Fn>
  Status Repeat(const char* name, double min_seconds, Fn&& fn) {
    obs::Span span(tracing_ ? &tracer_ : nullptr, name);
    Stopwatch watch;
    size_t calls = 0;
    double elapsed = 0.0;
    Status status = Status::OK();
    do {
      status = fn();
      ++calls;
      elapsed = watch.ElapsedSeconds();
    } while (status.ok() && elapsed < min_seconds);
    span.End();
    Entry& e = entries_[name];
    e.seconds += elapsed;
    e.calls += calls;
    return status;
  }

  double Seconds(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }
  double PerCall(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() || it->second.calls == 0
               ? 0.0
               : it->second.seconds / static_cast<double>(it->second.calls);
  }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  struct Entry {
    double seconds = 0.0;
    size_t calls = 0;
  };
  bool tracing_;
  obs::Tracer tracer_;
  std::map<std::string, Entry> entries_;
};

struct Deployment {
  data::DataSplit split;
  data::VerticalPartition partition;
  std::unique_ptr<he::HeBackend> backend;
  std::unique_ptr<ThreadPool> pool;  // null at 1 thread
  net::CostModel cost;
};

// Data generation, 80/10/10 split, standardization and the random vertical
// partition vfps_cli uses by default (span bench.setup.data), then HE key
// generation (bench.setup.keygen): the steps core::RunExperiment takes.
Result<std::unique_ptr<Deployment>> SetUp(const Workload& w, Ledger* ledger) {
  auto d = std::make_unique<Deployment>();
  VFPS_RETURN_NOT_OK(ledger->Time("bench.setup.data", [&]() -> Status {
    VFPS_ASSIGN_OR_RETURN(auto synthetic,
                          data::LoadPreset(w.dataset, w.scale, w.seed));
    VFPS_ASSIGN_OR_RETURN(d->split,
                          data::SplitDataset(synthetic.data, 0.8, 0.1, w.seed));
    VFPS_RETURN_NOT_OK(data::StandardizeSplit(&d->split));
    VFPS_ASSIGN_OR_RETURN(d->partition,
                          data::RandomVerticalPartition(
                              synthetic.data.num_features(), kParticipants,
                              w.seed));
    return Status::OK();
  }));
  VFPS_RETURN_NOT_OK(ledger->Time("bench.setup.keygen", [&]() -> Status {
    if (!w.ckks) {
      d->backend = he::CreatePlainBackend();
      return Status::OK();
    }
    VFPS_ASSIGN_OR_RETURN(d->backend,
                          he::CreateCkksBackend(he::CkksParams{}, w.seed,
                                                he::CkksPacking::kPacked));
    return Status::OK();
  }));
  if (w.threads != 1) d->pool = std::make_unique<ThreadPool>(w.threads);
  return d;
}

// One Select over a fresh simulated network and clock.
struct SelectRun {
  core::SelectionOutcome outcome;
  double seconds = 0.0;
  net::TrafficStats traffic;  // metered bytes of every oracle pass
  he::HeOpStats he_ops;       // ops of every oracle pass, repairs included
  SimClock clock;             // simulated selection time per category
};

// `obs` null runs the program untraced, as the end-to-end numbers require.
Result<SelectRun> RunSelect(const Workload& w, Deployment* d, ThreadPool* pool,
                            obs::MetricsRegistry* obs, Ledger* ledger) {
  SelectRun run;
  net::SimNetwork network;
  network.set_metrics(obs);
  if (w.faults.any()) network.EnableFaults(w.faults, kFaultSeed, &run.clock);
  d->backend->set_metrics(obs);
  d->backend->set_thread_pool(pool);
  core::SelectionContext ctx;
  ctx.split = &d->split;
  ctx.partition = &d->partition;
  ctx.backend = d->backend.get();
  ctx.network = &network;
  ctx.cost = &d->cost;
  ctx.clock = &run.clock;
  ctx.pool = pool;
  ctx.obs = obs;
  ctx.knn = KnnConfig(w);
  ctx.seed = w.seed;
  VFPS_ASSIGN_OR_RETURN(auto selector, core::CreateSelector(w.method));
  const he::HeOpStats before = d->backend->stats();
  const double seconds_before = ledger->Seconds("bench.select");
  Status status = ledger->Time("bench.select", [&]() -> Status {
    VFPS_ASSIGN_OR_RETURN(run.outcome, selector->Select(ctx, kSelect));
    return Status::OK();
  });
  run.seconds = ledger->Seconds("bench.select") - seconds_before;
  d->backend->set_metrics(nullptr);
  VFPS_RETURN_NOT_OK(status);
  run.traffic = network.total();
  run.he_ops = Delta(d->backend->stats(), before);
  return run;
}

// The outputs that must repeat exactly across runs, thread counts and
// tracing on/off.
bool SameOutputs(const SelectRun& a, const SelectRun& b) {
  return a.outcome.selected == b.outcome.selected &&
         a.outcome.quarantined == b.outcome.quarantined &&
         a.outcome.sim_seconds == b.outcome.sim_seconds &&
         a.outcome.knn_stats.candidates_encrypted ==
             b.outcome.knn_stats.candidates_encrypted &&
         a.traffic.bytes == b.traffic.bytes &&
         a.traffic.messages == b.traffic.messages &&
         a.he_ops.encrypt_ops == b.he_ops.encrypt_ops;
}

Result<vfl::TrainingOutcome> Train(const Deployment& d,
                                   const std::vector<size_t>& selected,
                                   Ledger* ledger) {
  SimClock clock;
  vfl::TrainingOutcome training;
  VFPS_RETURN_NOT_OK(ledger->Time("bench.vfl.train", [&]() -> Status {
    VFPS_ASSIGN_OR_RETURN(
        training, vfl::RunDownstreamTraining(d.split, d.partition, selected,
                                             vfl::DownstreamOptions{}, d.cost,
                                             &clock));
    return Status::OK();
  }));
  return training;
}

Status RunReference(Workload w) {
  w.method = core::SelectionMethod::kVfpsSmBase;
  w.ckks = false;
  w.shards = 1;
  w.threads = 1;
  w.query_group = 1;
  w.faults = net::FaultSpec{};
  w.quarantined = w.departs;
  Ledger ledger(false);
  VFPS_ASSIGN_OR_RETURN(auto d, SetUp(w, &ledger));
  VFPS_ASSIGN_OR_RETURN(SelectRun run,
                        RunSelect(w, d.get(), nullptr, nullptr, &ledger));
  Json out;
  out.Bool("ok", true);
  out.Ids("selected", run.outcome.selected);
  out.Ids("quarantined", run.outcome.quarantined);
  std::printf("%s\n", out.str().c_str());
  return Status::OK();
}

Status RunJob(const Workload& w) {
  Stopwatch job;
  Ledger ledger(false);
  VFPS_ASSIGN_OR_RETURN(auto d, SetUp(w, &ledger));
  VFPS_ASSIGN_OR_RETURN(SelectRun run,
                        RunSelect(w, d.get(), d->pool.get(), nullptr, &ledger));
  VFPS_ASSIGN_OR_RETURN(auto training, Train(*d, run.outcome.selected, &ledger));
  const double run_s = job.ElapsedSeconds();
  Json out;
  out.Bool("ok", true);
  out.Ids("selected", run.outcome.selected);
  out.Ids("quarantined", run.outcome.quarantined);
  out.Num("setup_s", ledger.Seconds("bench.setup.data") +
                         ledger.Seconds("bench.setup.keygen"));
  out.Num("selection_s", run.seconds);
  out.Num("train_s", ledger.Seconds("bench.vfl.train"));
  out.Num("run_s", run_s);
  out.Num("peak_rss_kb", PeakRssKb());
  // Deterministic outputs: repeat exactly for one seed.
  out.Num("selection_sim_s", run.outcome.sim_seconds);
  out.Num("enc_values_per_query", run.outcome.knn_stats.AvgCandidatesPerQuery());
  out.Num("wire_bytes", static_cast<double>(run.traffic.bytes));
  out.Num("encrypt_ct", static_cast<double>(run.he_ops.encrypt_ops));
  out.Num("test_accuracy", training.test_accuracy);
  std::printf("%s\n", out.str().c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Layers mode.

// The decomposed selection: the oracle (with the selector's quarantine-and-
// repair loop under a fault plan), similarity and greedy, each a public call
// wrapped in the benchmark's own span. The program itself runs untraced.
struct Decomposed {
  std::vector<vfl::QueryNeighborhood> hoods;
  vfl::FedKnnStats stats;  // the final (successful) oracle pass
  net::TrafficStats traffic;
  he::HeOpStats he_ops;
  std::vector<size_t> survivors;
  std::vector<size_t> selected;
  size_t greedy_evals = 0;
  double oracle_cpu_s = 0.0;  // thread-seconds the oracle passes consumed
};

Result<Decomposed> RunDecomposed(const Workload& w, Deployment* d,
                                 Ledger* ledger) {
  const size_t p = d->partition.size();
  Decomposed out;
  SimClock clock;
  net::SimNetwork network;
  if (w.faults.any()) network.EnableFaults(w.faults, kFaultSeed, &clock);
  d->backend->set_thread_pool(d->pool.get());
  vfl::FederatedKnnOracle oracle(&d->split.train, &d->partition,
                                 d->backend.get(), &network, &d->cost, &clock,
                                 d->pool.get(), nullptr);
  vfl::SelectionCache cache;
  if (w.faults.any()) oracle.set_cache(&cache);
  vfl::FedKnnConfig knn = KnnConfig(w);
  knn.mode = w.topk() ? vfl::KnnOracleMode::kFagin : vfl::KnnOracleMode::kBase;
  knn.seed = w.seed;
  const he::HeOpStats he_before = d->backend->stats();
  const double cpu_before = ProcessCpuSeconds();
  for (size_t round = 0;; ++round) {
    out.stats = vfl::FedKnnStats{};
    Status status = ledger->Time("bench.vfl.oracle", [&]() -> Status {
      VFPS_ASSIGN_OR_RETURN(out.hoods, oracle.Run(knn, &out.stats));
      return Status::OK();
    });
    if (status.ok()) break;
    // A participant that left or crashed is quarantined and the oracle
    // repaired over the survivors, as VfpsSmSelector does.
    if (!status.IsPeerDead() || round > 2 * p + 4) return status;
    bool changed = false;
    for (net::NodeId dead : out.stats.dead_nodes) {
      if (dead < 1 || static_cast<size_t>(dead) >= p) return status;
      const auto id = static_cast<size_t>(dead);
      if (std::find(knn.quarantined.begin(), knn.quarantined.end(), id) ==
          knn.quarantined.end()) {
        knn.quarantined.push_back(id);
        changed = true;
      }
    }
    if (!changed) return status;
    std::sort(knn.quarantined.begin(), knn.quarantined.end());
  }
  out.oracle_cpu_s = ProcessCpuSeconds() - cpu_before;
  out.traffic = network.total();
  out.he_ops = Delta(d->backend->stats(), he_before);

  for (size_t id = 0; id < p; ++id) {
    if (std::find(knn.quarantined.begin(), knn.quarantined.end(), id) ==
        knn.quarantined.end()) {
      out.survivors.push_back(id);
    }
  }
  std::vector<vfl::QueryNeighborhood> compact = out.hoods;
  for (vfl::QueryNeighborhood& hood : compact) {
    std::vector<double> dt;
    for (size_t id : out.survivors) dt.push_back(hood.per_party_dt[id]);
    hood.per_party_dt = std::move(dt);
  }
  core::SimilarityMatrix similarity;
  VFPS_RETURN_NOT_OK(ledger->Repeat(
      "bench.core.similarity", kMinReplaySeconds, [&]() -> Status {
        VFPS_ASSIGN_OR_RETURN(similarity,
                              core::BuildSimilarity(compact, out.survivors.size(),
                                                    d->pool.get()));
        return Status::OK();
      }));
  const core::KnnSubmodularFunction f(similarity);
  core::GreedyResult greedy;
  VFPS_RETURN_NOT_OK(
      ledger->Repeat("bench.core.greedy", kMinReplaySeconds, [&]() -> Status {
        greedy = core::LazyGreedyMaximize(
            f, std::min(kSelect, out.survivors.size()));
        return Status::OK();
      }));
  out.greedy_evals = greedy.evaluations;
  for (size_t pos : greedy.selected) out.selected.push_back(out.survivors[pos]);
  std::sort(out.selected.begin(), out.selected.end());
  return out;
}

// One encrypted aggregation round on the parties' real vectors: each party
// encrypts its vector, the server sums, the leader decrypts.
Status ReplayHeRound(he::HeBackend* session,
                     const std::vector<std::vector<double>>& party_values,
                     Ledger* ledger, std::vector<double>* decrypted) {
  std::vector<he::EncryptedVector> encrypted(party_values.size());
  VFPS_RETURN_NOT_OK(ledger->Time("bench.he.encrypt", [&]() -> Status {
    for (size_t i = 0; i < party_values.size(); ++i) {
      VFPS_ASSIGN_OR_RETURN(encrypted[i], session->Encrypt(party_values[i]));
    }
    return Status::OK();
  }));
  std::vector<const he::EncryptedVector*> ptrs;
  for (const he::EncryptedVector& e : encrypted) ptrs.push_back(&e);
  he::EncryptedVector summed;
  VFPS_RETURN_NOT_OK(ledger->Time("bench.he.sum", [&]() -> Status {
    VFPS_ASSIGN_OR_RETURN(summed, session->Sum(ptrs));
    return Status::OK();
  }));
  return ledger->Time("bench.he.decrypt", [&]() -> Status {
    VFPS_ASSIGN_OR_RETURN(*decrypted, session->Decrypt(summed));
    return Status::OK();
  });
}

// Replays the per-query layer calls of the oracle on the run's own query rows
// and data: per-party partial distances, and then either the top-k path (per
// shard: full per-party sort, Fagin, encrypted round on the candidates,
// SmallestK; then, with more than one shard, the shard merge) or the grouped
// BASE path (one encrypted round on G concatenated (N-1)-vectors, SmallestK
// per query). Only the calls the oracle makes are replayed, so a layer the
// workload does not use reads 0.
Status ReplayQueries(const Workload& w, const Deployment& d,
                     const Decomposed& dec, Ledger* ledger,
                     he::HeOpStats* replay_ops) {
  const data::Dataset& train = d.split.train;
  const size_t n = train.num_samples();
  std::vector<ml::FeatureBlock> blocks;
  for (size_t party : dec.survivors) {
    blocks.emplace_back(train, d.partition[party]);
  }
  const size_t a = blocks.size();
  VFPS_ASSIGN_OR_RETURN(auto session, d.backend->Fork(w.seed ^ 0xbe9c4));
  VFPS_ASSIGN_OR_RETURN(auto plan, data::MakeRowShards(n, w.topk() ? w.shards : 1));
  size_t group = w.query_group;
  if (group == 0) group = std::max<size_t>(1, session->SlotsPerCiphertext() / (n - 1));
  group = std::min(group, dec.hoods.size());

  const auto smallest_k = [&](const double* values, size_t count,
                              uint64_t offset,
                              std::vector<topk::ShardTopk>* tops) -> Status {
    std::vector<uint64_t> top;
    VFPS_RETURN_NOT_OK(ledger->Repeat(
        "bench.ml.smallestk", kMinReplaySeconds, [&]() -> Status {
          top = ml::SmallestK(values, count, kK);
          return Status::OK();
        }));
    tops->push_back(topk::ShardTopkFromIndices(top, values, offset));
    return Status::OK();
  };

  const size_t replays = std::min(kReplayQueries, dec.hoods.size());
  std::vector<std::vector<double>> grouped(a);  // BASE: the pending group
  size_t pending = 0;
  for (size_t qi = 0; qi < replays; ++qi) {
    const size_t qrow = dec.hoods[qi].query_row;
    std::vector<std::vector<double>> scores(a, std::vector<double>(n));
    VFPS_RETURN_NOT_OK(ledger->Time("bench.ml.distance", [&]() -> Status {
      for (size_t ai = 0; ai < a; ++ai) {
        std::vector<double> q(blocks[ai].cols());
        blocks[ai].GatherInto(train.Row(qrow), q.data());
        ml::BlockSquaredDistances(blocks[ai], q.data(),
                                  ml::SquaredNorm(q.data(), q.size()), 0, n,
                                  scores[ai].data());
      }
      return Status::OK();
    }));

    std::vector<topk::ShardTopk> shard_tops;
    if (!w.topk()) {
      for (size_t ai = 0; ai < a; ++ai) {
        std::vector<double>& row = scores[ai];
        row.erase(row.begin() + static_cast<std::ptrdiff_t>(qrow));
        grouped[ai].insert(grouped[ai].end(), row.begin(), row.end());
      }
      if (++pending == group || qi + 1 == replays) {
        std::vector<double> decrypted;
        VFPS_RETURN_NOT_OK(
            ReplayHeRound(session.get(), grouped, ledger, &decrypted));
        for (size_t g = 0; g < pending; ++g) {
          VFPS_RETURN_NOT_OK(smallest_k(decrypted.data() + g * (n - 1), n - 1,
                                        0, &shard_tops));
        }
        for (auto& v : grouped) v.clear();
        pending = 0;
      }
    } else {
      for (size_t ai = 0; ai < a; ++ai) {
        scores[ai][qrow] = std::numeric_limits<double>::infinity();
      }
      for (const data::RowShard& shard : plan) {
        std::vector<std::vector<double>> local(a);
        for (size_t ai = 0; ai < a; ++ai) {
          local[ai].assign(
              scores[ai].begin() + static_cast<std::ptrdiff_t>(shard.begin),
              scores[ai].begin() + static_cast<std::ptrdiff_t>(shard.end));
        }
        // The full per-party sort, then Fagin over the sorted lists.
        std::optional<topk::RankedListSet> ranked;
        VFPS_RETURN_NOT_OK(ledger->Time("bench.topk.rank", [&]() -> Status {
          VFPS_ASSIGN_OR_RETURN(auto built,
                                topk::RankedListSet::Build(std::move(local)));
          ranked.emplace(std::move(built));
          return Status::OK();
        }));
        topk::TopkResult merge;
        VFPS_RETURN_NOT_OK(ledger->Time("bench.topk.fagin", [&]() -> Status {
          VFPS_ASSIGN_OR_RETURN(
              merge, topk::FaginTopk(*ranked, kK, KnnConfig(w).fagin_batch));
          return Status::OK();
        }));
        std::vector<std::vector<double>> party_values(a);
        for (uint64_t id : merge.candidate_ids) {
          if (shard.contains(qrow) && id == qrow - shard.begin) continue;
          for (size_t ai = 0; ai < a; ++ai) {
            party_values[ai].push_back(ranked->Score(ai, id));
          }
        }
        std::vector<double> decrypted;
        VFPS_RETURN_NOT_OK(
            ReplayHeRound(session.get(), party_values, ledger, &decrypted));
        VFPS_RETURN_NOT_OK(smallest_k(decrypted.data(), decrypted.size(),
                                      shard.begin, &shard_tops));
      }
    }
    if (w.topk() && w.shards > 1) {
      VFPS_RETURN_NOT_OK(ledger->Repeat(
          "bench.topk.shard_merge", kMinReplaySeconds, [&]() -> Status {
            return topk::HierarchicalTopkMerge(shard_tops, kK).status();
          }));
    }
  }
  *replay_ops = session->stats();
  return Status::OK();
}

// Send+Recv of `bytes`-sized payloads from a participant to the aggregation
// server, through a ReliableChannel whose network drops messages with
// `drop_prob` (0: the channel passes straight through to SimNetwork).
// Returns metered messages per delivered one, minus 1: the retry rate.
Result<double> ReplayChannel(Ledger* ledger, const char* name, size_t bytes,
                             double drop_prob, uint64_t seed) {
  net::SimNetwork network;
  SimClock clock;
  if (drop_prob > 0.0) {
    net::FaultSpec spec;
    spec.drop_prob = drop_prob;
    network.EnableFaults(spec, seed, &clock);
  }
  net::ReliableChannel channel(&network, &clock);
  const std::vector<uint8_t> payload(bytes, 0x5a);
  uint64_t delivered = 0;
  VFPS_RETURN_NOT_OK(
      ledger->Repeat(name, kMinReplaySeconds * 5, [&]() -> Status {
        VFPS_RETURN_NOT_OK(channel.Send(1, net::kAggregationServer, payload));
        VFPS_RETURN_NOT_OK(channel.Recv(1, net::kAggregationServer).status());
        ++delivered;
        return Status::OK();
      }));
  return static_cast<double>(network.total().messages) /
             static_cast<double>(delivered) -
         1.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile of the durations of the spans named `name`.
double SpanPercentile(const std::vector<obs::TraceEvent>& events,
                      const std::string& name, double pct) {
  std::vector<double> durs;
  for (const obs::TraceEvent& e : events) {
    if (!e.instant && e.name == name) durs.push_back(static_cast<double>(e.dur_ns));
  }
  if (durs.empty()) return 0.0;
  std::sort(durs.begin(), durs.end());
  const auto rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(durs.size())));
  return durs[std::max<size_t>(rank, 1) - 1];
}

double SpanTotal(const std::vector<obs::TraceEvent>& events,
                 const std::string& name) {
  double total = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (!e.instant && e.name == name) total += static_cast<double>(e.dur_ns);
  }
  return total;
}

Status RunLayers(const Workload& w) {
  Ledger ledger(true);
  VFPS_ASSIGN_OR_RETURN(auto d, SetUp(w, &ledger));
  const size_t n = d->split.train.num_samples();
  const size_t p = d->partition.size();

  // A warm-up Select (first-touch page faults, pool start-up) that is also
  // the reference every later run must repeat exactly; then untraced and
  // traced Selects in alternating order, for the tracing overhead and the
  // program's own per-query latency histogram.
  size_t attempted = 1;
  size_t failed = 0;  // runs whose outputs differ from the warm-up's
  VFPS_ASSIGN_OR_RETURN(const SelectRun base,
                        RunSelect(w, d.get(), d->pool.get(), nullptr, &ledger));
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<obs::MetricsRegistry> registry;
  const Stopwatch pairs_watch;
  for (size_t pair = 0;
       pair < kMinPairs || pairs_watch.ElapsedSeconds() < w.pair_seconds;
       ++pair) {
    for (size_t half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (pair % 2 == 0);
      std::unique_ptr<obs::MetricsRegistry> run_registry;
      if (traced) {
        run_registry = std::make_unique<obs::MetricsRegistry>();
        run_registry->EnableTracing();
      }
      ++attempted;
      VFPS_ASSIGN_OR_RETURN(
          SelectRun run,
          RunSelect(w, d.get(), d->pool.get(), run_registry.get(), &ledger));
      if (!SameOutputs(base, run)) ++failed;
      (traced ? traced_s : untraced_s).push_back(run.seconds);
      if (traced && registry == nullptr) registry = std::move(run_registry);
    }
  }
  // Thread-count invariance: the same job serially.
  if (w.threads != 1) {
    ++attempted;
    VFPS_ASSIGN_OR_RETURN(SelectRun serial,
                          RunSelect(w, d.get(), nullptr, nullptr, &ledger));
    if (!SameOutputs(base, serial)) ++failed;
  }

  ++attempted;
  VFPS_ASSIGN_OR_RETURN(Decomposed dec, RunDecomposed(w, d.get(), &ledger));
  if (dec.selected != base.outcome.selected) ++failed;
  VFPS_RETURN_NOT_OK(Train(*d, dec.selected, &ledger).status());

  he::HeOpStats replay_ops;
  VFPS_RETURN_NOT_OK(ReplayQueries(w, *d, dec, &ledger, &replay_ops));
  const size_t ct_bytes = d->backend->CiphertextBytes(1);
  const double drop = w.faults.drop_prob;
  VFPS_RETURN_NOT_OK(
      ReplayChannel(&ledger, "bench.net.msg", ct_bytes, 0.0, w.seed).status());
  VFPS_ASSIGN_OR_RETURN(
      double retries,
      ReplayChannel(&ledger, "bench.net.chan_msg", ct_bytes, drop, w.seed));
  const auto avg_bytes = static_cast<size_t>(
      dec.traffic.bytes / std::max<uint64_t>(1, dec.traffic.messages));
  VFPS_RETURN_NOT_OK(ReplayChannel(&ledger, "bench.net.avg_msg", avg_bytes,
                                   drop, w.seed)
                         .status());

  // Attribution: each replayed per-call cost times the calls the run made.
  const vfl::FedKnnStats& st = dec.stats;
  const auto q = static_cast<double>(st.queries);
  const auto survivors = static_cast<double>(dec.survivors.size());
  const size_t replays = std::min(kReplayQueries, dec.hoods.size());
  const double per_query = 1.0 / static_cast<double>(replays);
  const double distance_ns_per_row =
      ledger.Seconds("bench.ml.distance") * 1e9 /
      (static_cast<double>(replays) * survivors * static_cast<double>(n));
  // Per query, over all of its shards; 0 for a call the run does not make.
  const double rank_s = ledger.Seconds("bench.topk.rank") * per_query;
  const double fagin_s = ledger.Seconds("bench.topk.fagin") * per_query;
  const double merge_s = ledger.PerCall("bench.topk.shard_merge");
  const double smallestk_s = ledger.PerCall("bench.ml.smallestk");
  const double enc_ct_s = ledger.Seconds("bench.he.encrypt") /
                          static_cast<double>(std::max<uint64_t>(1, replay_ops.encrypt_ops));
  const double add_s = ledger.Seconds("bench.he.sum") /
                       static_cast<double>(std::max<uint64_t>(1, replay_ops.add_ops));
  const double dec_ct_s = ledger.Seconds("bench.he.decrypt") /
                          static_cast<double>(std::max<uint64_t>(1, replay_ops.decrypt_ops));

  const double shards = w.topk() ? static_cast<double>(w.shards) : 1.0;
  const double wall_distance = distance_ns_per_row * 1e-9 * q * survivors *
                               static_cast<double>(n);
  const double wall_rank = rank_s * q;
  const double wall_fagin = fagin_s * q;
  const double wall_merge = merge_s * q;
  const double wall_smallestk = smallestk_s * q * shards;
  const double wall_encrypt = enc_ct_s * static_cast<double>(dec.he_ops.encrypt_ops);
  const double wall_sum = add_s * static_cast<double>(dec.he_ops.add_ops);
  const double wall_decrypt = dec_ct_s * static_cast<double>(dec.he_ops.decrypt_ops);
  const double wall_net = ledger.PerCall("bench.net.avg_msg") *
                          static_cast<double>(dec.traffic.messages) / (1.0 + retries);
  const double oracle_s = ledger.Seconds("bench.vfl.oracle");
  // Replays are serial; the oracle may not be, so shares are of its CPU time.
  const double busy_s = dec.oracle_cpu_s;
  const double attributed = wall_distance + wall_rank + wall_fagin + wall_merge +
                            wall_smallestk + wall_encrypt + wall_sum +
                            wall_decrypt + wall_net;
  const double wall_compute = wall_distance + wall_rank + wall_fagin +
                              wall_merge + wall_smallestk +
                              ledger.PerCall("bench.core.similarity") +
                              ledger.PerCall("bench.core.greedy");

  // The program's own trace of the first traced Select, for comparison.
  const std::vector<obs::TraceEvent> events = registry->tracer()->Snapshot();
  const double query_ns = std::max(1.0, SpanTotal(events, "knn.query"));
  const auto trace_share = [&](const char* name) {
    return SpanTotal(events, name) / query_ns;
  };

  // Per-layer metrics: replayed per-call costs, the run's counts, modelled
  // (sim.*) and attributed measured (wall.*) seconds per cost category.
  Json m;
  m.Num("data.setup_s", ledger.Seconds("bench.setup.data"));
  m.Num("he.keygen_s", ledger.Seconds("bench.setup.keygen"));
  m.Num("he.encrypt_us_per_ct", enc_ct_s * 1e6);
  m.Num("he.sum_us_per_ct", add_s * 1e6);
  m.Num("he.decrypt_us_per_ct", dec_ct_s * 1e6);
  m.Num("he.encrypt_ct", static_cast<double>(base.he_ops.encrypt_ops));
  m.Num("ml.distance_ns_per_row", distance_ns_per_row);
  m.Num("ml.smallestk_us", smallestk_s * 1e6);
  m.Num("topk.rank_ms", rank_s * 1e3);
  m.Num("topk.fagin_ms", fagin_s * 1e3);
  m.Num("topk.shard_merge_us", merge_s * 1e6);
  m.Num("topk.depth_ratio", static_cast<double>(st.fagin_depth) /
                                (q * static_cast<double>(n)));
  m.Num("net.msg_us", ledger.PerCall("bench.net.msg") * 1e6);
  m.Num("net.chan_msg_us", ledger.PerCall("bench.net.chan_msg") * 1e6);
  m.Num("net.retries_per_msg", retries);
  m.Num("net.messages", static_cast<double>(base.traffic.messages));
  m.Num("vfl.oracle_s", oracle_s);
  m.Num("vfl.oracle_cpu_s", busy_s);
  m.Num("vfl.query_p50_ms",
        static_cast<double>(
            registry->GetHistogram("knn.query.wall_ns")->Percentiles().p50) *
            1e-6);
  m.Num("vfl.query_p90_ms", SpanPercentile(events, "knn.query", 90.0) * 1e-6);
  m.Num("vfl.reused_ratio", static_cast<double>(st.reused_contributions) /
                                (static_cast<double>(p) * q));
  m.Num("vfl.train_s", ledger.Seconds("bench.vfl.train"));
  m.Num("vfl.unattributed_share", 1.0 - attributed / busy_s);
  m.Num("core.similarity_us", ledger.PerCall("bench.core.similarity") * 1e6);
  m.Num("core.greedy_us", ledger.PerCall("bench.core.greedy") * 1e6);
  m.Num("core.greedy_evals", static_cast<double>(dec.greedy_evals));
  const SimClock& clock = base.clock;
  m.Num("sim.encrypt_s", clock.TotalFor(CostCategory::kEncrypt));
  m.Num("sim.decrypt_s", clock.TotalFor(CostCategory::kDecrypt));
  m.Num("sim.he_eval_s", clock.TotalFor(CostCategory::kHeEval));
  m.Num("sim.network_s", clock.TotalFor(CostCategory::kNetwork));
  m.Num("sim.compute_s", clock.TotalFor(CostCategory::kCompute));
  m.Num("wall.encrypt_s", wall_encrypt);
  m.Num("wall.decrypt_s", wall_decrypt);
  m.Num("wall.he_eval_s", wall_sum);
  m.Num("wall.network_s", wall_net);
  m.Num("wall.compute_s", wall_compute);
  m.Num("obs.trace_overhead", Median(traced_s) / Median(untraced_s) - 1.0);

  // Shares of the oracle's CPU time, from the replays and from the program's
  // own trace (the sharded path records no phase spans, only knn.shard).
  Json shares;
  shares.Num("encrypt", wall_encrypt / busy_s);
  shares.Num("distance", wall_distance / busy_s);
  shares.Num("rank", wall_rank / busy_s);
  shares.Num("fagin", wall_fagin / busy_s);
  shares.Num("smallestk", wall_smallestk / busy_s);
  shares.Num("shard_merge", wall_merge / busy_s);
  shares.Num("sum", wall_sum / busy_s);
  shares.Num("decrypt", wall_decrypt / busy_s);
  shares.Num("net", wall_net / busy_s);
  Json trace;
  for (const char* name : {"he.encrypt", "knn.partial_distance", "knn.topk_merge",
                           "knn.aggregate", "knn.decrypt_rank",
                           "knn.stream_rankings", "knn.dt_exchange"}) {
    trace.Num(name, trace_share(name));
  }

  if (!w.trace_out.empty()) {
    VFPS_RETURN_NOT_OK(ledger.tracer().WriteJsonFile(w.trace_out));
  }
  Json out;
  out.Bool("ok", true);
  out.Ids("selected", base.outcome.selected);
  out.Ids("quarantined", base.outcome.quarantined);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Object("shares", shares);
  out.Object("trace_shares", trace);
  out.Object("metrics", m);
  std::printf("%s\n", out.str().c_str());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  Status status = Status::OK();
  Result<Workload> parsed = ParseFlags(argc, argv);
  if (!parsed.ok()) {
    status = parsed.status();
  } else if (mode == "reference") {
    status = RunReference(parsed.MoveValueUnsafe());
  } else if (mode == "job") {
    status = RunJob(parsed.MoveValueUnsafe());
  } else if (mode == "layers") {
    status = RunLayers(parsed.MoveValueUnsafe());
  } else {
    status = Status::InvalidArgument("mode must be reference, job or layers");
  }
  if (status.ok()) return 0;
  Json out;
  out.Bool("ok", false);
  out.Str("error", status.ToString());
  std::printf("%s\n", out.str().c_str());
  return 1;
}
