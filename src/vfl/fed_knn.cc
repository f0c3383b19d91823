#include "vfl/fed_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/buffer.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "ml/kmeans.h"
#include "ml/knn.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topk/fagin.h"
#include "topk/shard_merge.h"
#include "topk/threshold.h"

namespace vfps::vfl {

namespace {
// The leader is participant 0 by convention (it holds the labels).
constexpr net::NodeId kLeader = 0;

// Salt separating the per-query HE randomness streams from the query-sampling
// stream (both are derived from the consortium seed).
constexpr uint64_t kHeStreamSalt = 0xC0FFEE5EEDD1CE5ULL;

// Salt separating the per-query fault streams from the main network's fault
// stream (both are derived from the seed passed to EnableFaults).
constexpr uint64_t kFaultStreamSalt = 0xFA117AB1E5A17ULL;

// Indices of the k smallest values, ties broken by index (bounded-heap
// kernel; +inf entries for excluded rows lose every comparison).
using ml::SmallestK;

std::vector<uint8_t> EncodeIds(const std::vector<uint64_t>& ids) {
  BinaryWriter writer;
  writer.WriteU64Vec(ids);
  return writer.TakeBytes();
}

Result<std::vector<uint64_t>> DecodeIds(const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  return reader.ReadU64Vec();
}

std::vector<uint8_t> EncodeScalar(double v) {
  BinaryWriter writer;
  writer.WriteDouble(v);
  return writer.TakeBytes();
}

Result<double> DecodeScalar(const std::vector<uint8_t>& payload) {
  BinaryReader reader(payload);
  return reader.ReadDouble();
}

// Gathers `row`'s slice of `block`'s columns into `slice` and returns its
// squared norm.
double GatherQuery(const ml::FeatureBlock& block, const double* row,
                   std::vector<double>* slice) {
  slice->resize(block.cols());
  block.GatherInto(row, slice->data());
  return ml::SquaredNorm(slice->data(), block.cols());
}

// One protocol phase: its trace span (on `node`) plus the simulated time the
// phase charged, added to `counter` (`knn.phase.sim_ns{phase=...}`) on End().
// Durations are deterministic simulated seconds rounded to integer ns, so the
// labeled totals stay bit-identical at any thread count. A null tracer or
// counter switches that half off.
class Phase {
 public:
  Phase(obs::Tracer* tracer, const SimClock* clock, const char* name,
        const char* node, obs::Counter* counter)
      : span_(tracer, name, clock),
        counter_(counter),
        clock_(clock),
        start_seconds_(counter != nullptr ? clock->Total() : 0.0) {
    span_.SetNode(node);
  }
  ~Phase() { End(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  obs::Span& span() { return span_; }
  void End() {
    if (counter_ != nullptr) {
      counter_->Add(static_cast<uint64_t>(
          std::llround((clock_->Total() - start_seconds_) * 1e9)));
      counter_ = nullptr;
    }
    span_.End();
  }

 private:
  obs::Span span_;
  obs::Counter* counter_;
  const SimClock* clock_;
  double start_seconds_;
};

// The top-k modes' score for the query's own row: it ranks last everywhere,
// so it never becomes a neighbor.
constexpr double kQueryScore = std::numeric_limits<double>::infinity();

// Lloyd iterations of the pre-filter's per-party clustering; also the basis
// of the simulated-clock charge for building the models.
constexpr size_t kPrefilterKmeansIters = 8;
}  // namespace

const char* KnnOracleModeName(KnnOracleMode mode) {
  switch (mode) {
    case KnnOracleMode::kBase:
      return "base";
    case KnnOracleMode::kFagin:
      return "fagin";
    case KnnOracleMode::kThreshold:
      return "threshold";
  }
  return "unknown";
}

FederatedKnnOracle::FederatedKnnOracle(const data::Dataset* joint_train,
                                       const data::VerticalPartition* partition,
                                       he::HeBackend* backend,
                                       net::SimNetwork* network,
                                       const net::CostModel* cost_model,
                                       SimClock* clock, ThreadPool* pool,
                                       obs::MetricsRegistry* obs)
    : joint_(joint_train),
      partition_(partition),
      backend_(backend),
      network_(network),
      cost_(cost_model),
      clock_(clock),
      pool_(pool),
      obs_(obs) {
  // Pack each participant's columns once (contiguous rows + cached norms);
  // every distance below runs on these blocks instead of gathering columns
  // from the joint row-major matrix per query.
  party_blocks_.reserve(partition_->size());
  for (size_t party = 0; party < partition_->size(); ++party) {
    party_blocks_.emplace_back(*joint_, (*partition_)[party]);
  }
  if (obs_ != nullptr) {
    c_queries_ = obs_->GetCounter("knn.queries");
    h_candidates_ = obs_->GetHistogram("knn.candidates");
    // Every labeled dimension is bounded and known up front, so resolve all
    // series here — query tasks never touch the registry mutex.
    for (KnnOracleMode mode : {KnnOracleMode::kBase, KnnOracleMode::kFagin,
                               KnnOracleMode::kThreshold}) {
      c_queries_mode_[static_cast<int>(mode)] = obs_->GetLabeledCounter(
          "knn.queries.by_algo", {{"algo", KnnOracleModeName(mode)}});
    }
    c_cache_hit_ =
        obs_->GetLabeledCounter("knn.cache.lookups", {{"cache", "hit"}});
    c_cache_miss_ =
        obs_->GetLabeledCounter("knn.cache.lookups", {{"cache", "miss"}});
    const auto phase = [this](const char* name) {
      return obs_->GetLabeledCounter("knn.phase.sim_ns", {{"phase", name}});
    };
    c_phase_dist_ = phase("partial_distance");
    c_phase_encrypt_ = phase("encrypt");
    c_phase_agg_ = phase("aggregate");
    c_phase_rank_ = phase("decrypt_rank");
    c_phase_dt_ = phase("dt_exchange");
    c_phase_merge_ = phase("topk_merge");
    c_phase_stream_ = phase("stream_rankings");
    c_party_enc_values_.resize(partition_->size(), nullptr);
    for (size_t party = 0; party < partition_->size(); ++party) {
      c_party_enc_values_[party] = obs_->GetLabeledCounter(
          "knn.party.encrypted_values",
          {{"party", StrFormat("%zu", party)}});
    }
    h_unit_sim_ns_ = obs_->GetHistogram("knn.query.sim_ns");
    h_unit_wall_ns_ = obs_->GetHistogram("knn.query.wall_ns");
    c_shard_merges_ = obs_->GetCounter("knn.shard.merges");
    c_prefilter_candidates_ = obs_->GetCounter("knn.prefilter.candidates");
    c_prefilter_pruned_ = obs_->GetCounter("knn.prefilter.pruned_rows");
  }
}

void FederatedKnnOracle::ChargeParallelCompute(
    SimClock* clock, const std::vector<double>& per_party_seconds) const {
  double worst = 0.0;
  for (double s : per_party_seconds) worst = std::max(worst, s);
  clock->Advance(CostCategory::kCompute, worst);
}

void FederatedKnnOracle::ChargeFanIn(SimClock* clock, uint64_t bytes_per_party,
                                     size_t parties) const {
  // Participants transmit in parallel; the server's ingress link is the
  // bottleneck, so one latency plus the total bytes.
  clock->Advance(CostCategory::kNetwork,
                 cost_->NetworkSeconds(bytes_per_party * parties, 1));
}

void FederatedKnnOracle::ChargeFanOut(SimClock* clock, uint64_t bytes_per_link,
                                      size_t links) const {
  clock->Advance(CostCategory::kNetwork,
                 cost_->NetworkSeconds(bytes_per_link * links, 1));
}

Result<std::vector<QueryNeighborhood>> FederatedKnnOracle::Run(
    const FedKnnConfig& config, FedKnnStats* stats) {
  const size_t n = joint_->num_samples();
  const size_t p = num_participants();
  VFPS_CHECK_ARG(p >= 2, "fed-knn: need >= 2 participants");
  VFPS_CHECK_ARG(config.k >= 1, "fed-knn: k must be >= 1");
  VFPS_CHECK_ARG(n > config.k + 1, "fed-knn: dataset smaller than k");
  VFPS_CHECK_ARG(config.num_queries >= 1, "fed-knn: need >= 1 query");
  VFPS_CHECK_ARG(config.fagin_batch >= 1, "fed-knn: fagin batch must be >= 1");
  VFPS_CHECK_ARG(config.shards >= 1, "fed-knn: shards must be >= 1");

  // Survivor view: everybody minus the quarantined and not-yet-joined
  // participants. With no exclusions the list is 0..P-1 and every code path
  // below is the pristine protocol.
  std::vector<size_t> active;
  active.reserve(p);
  for (size_t party = 0; party < p; ++party) {
    const bool quarantined =
        std::find(config.quarantined.begin(), config.quarantined.end(),
                  party) != config.quarantined.end();
    const bool absent = std::find(config.absent.begin(), config.absent.end(),
                                  party) != config.absent.end();
    if (!quarantined && !absent) active.push_back(party);
  }
  VFPS_CHECK_ARG(!active.empty() && active.front() == 0,
                 "fed-knn: the leader (participant 0) cannot be quarantined");
  if (!config.quarantined.empty() && active.size() < 3) {
    // A 2-party consortium (leader + one survivor) runs the protocol but the
    // similarity matrix it feeds degenerates — the selection carries no
    // signal. Surface a typed error instead of silently computing noise.
    return Status::Unavailable(StrFormat(
        "fed-knn: churn left only %zu active participant(s) of %zu after "
        "quarantining %zu; a meaningful selection needs >= 3 survivors",
        active.size(), p, config.quarantined.size()));
  }
  VFPS_CHECK_ARG(active.size() >= 2,
                 "fed-knn: fewer than 2 active participants");

  // One retry policy for every channel of this run (the main broadcast and
  // each query task's lockstep exchanges).
  net::RetryPolicy retry;
  if (config.net_retries > 0) retry.max_attempts = config.net_retries;
  retry.jitter_factor = config.net_jitter;
  retry.jitter_seed = config.seed;

  // Membership decisions from earlier runs are pushed down to every fault
  // stream: healed nodes must not re-fire their crash/leave rules (each
  // stream's counters restart from zero), and admitted joiners must not be
  // absent again.
  const auto apply_membership_marks = [&config](net::SimNetwork* net) {
    for (size_t node : config.healed) {
      net->MarkHealed(static_cast<net::NodeId>(node));
    }
    for (size_t node : config.joined) {
      net->MarkJoined(static_cast<net::NodeId>(node));
    }
  };
  apply_membership_marks(network_);

  const net::TrafficStats traffic_before = network_->total();
  // Churn bookkeeping is unioned over the main network and every unit's
  // fault stream (each task-local network watches its copy of the schedule
  // unfold independently); dead nodes are reported only for a failed run.
  const auto report_churn = [&](const std::vector<const net::SimNetwork*>& nets,
                                bool failed) {
    if (stats == nullptr) return;
    std::set<net::NodeId> dead, departed, joined, healed;
    const auto take = [&](const net::SimNetwork& net) {
      for (net::NodeId d : net.DeadNodes()) dead.insert(d);
      for (net::NodeId d : net.DepartedNodes()) departed.insert(d);
      for (net::NodeId d : net.JoinedNodes()) joined.insert(d);
      for (net::NodeId d : net.HealedNodes()) healed.insert(d);
    };
    take(*network_);
    for (const net::SimNetwork* net : nets) take(*net);
    if (failed) stats->dead_nodes.assign(dead.begin(), dead.end());
    stats->departed_nodes.assign(departed.begin(), departed.end());
    stats->joined_nodes.assign(joined.begin(), joined.end());
    stats->healed_nodes.assign(healed.begin(), healed.end());
  };
  obs::Tracer* const tracer = obs_ == nullptr ? nullptr : obs_->tracer();
  // Causal anchor for the fan-out below: each query task re-adopts the
  // caller's span context on its worker thread, so every per-unit trace tree
  // hangs off the selection span that requested it.
  const obs::TraceContext parent_ctx = obs::Tracer::Current();

  // The leader samples the query set and shares the row ids (plain indices of
  // shared training samples; no feature values cross the wire here). The
  // exchange rides the reliable channel so injected faults on the broadcast
  // are retried; a dead peer here fails the run before any query starts.
  Rng rng(config.seed);
  const size_t num_queries = std::min(config.num_queries, n);
  std::vector<size_t> queries = rng.SampleWithoutReplacement(n, num_queries);
  net::ReliableChannel main_chan(network_, clock_, retry);
  for (size_t party : active) {
    if (party == 0) continue;
    std::vector<uint64_t> ids(queries.begin(), queries.end());
    Status sent =
        main_chan.Send(kLeader, static_cast<int>(party), EncodeIds(ids));
    if (sent.ok()) {
      sent = main_chan.Recv(kLeader, static_cast<int>(party)).status();
    }
    if (!sent.ok()) {
      report_churn({}, /*failed=*/true);
      return sent;
    }
  }
  ChargeFanOut(clock_, num_queries * sizeof(uint64_t), active.size() - 1);

  // Consortium-shared pseudo-ID shuffle for the top-k modes, derived once per
  // Run from the shared seed and read concurrently by every query task.
  const PseudoIdMap pseudo = (config.mode == KnnOracleMode::kBase)
                                 ? PseudoIdMap()
                                 : PseudoIdMap::Create(n, config.seed);

  // The row-shard plan (one shard when unsharded), the top-k item orders,
  // the pre-filter models and the per-shard metric handles — all built
  // serially here so unit tasks share them read-only (no registry mutex, no
  // model races).
  ShardRuntime shard_rt;
  VFPS_ASSIGN_OR_RETURN(shard_rt.plan, data::MakeRowShards(n, config.shards));
  const bool multi_shard = shard_rt.plan.size() > 1;
  if (config.mode != KnnOracleMode::kBase) {
    shard_rt.ranked_rows.resize(shard_rt.plan.size());
    for (uint64_t pid = 0; pid < n; ++pid) {
      const uint64_t row = pseudo.ToOriginal(pid);
      shard_rt.ranked_rows[data::ShardOfRow(row, n, config.shards)].push_back(
          row);
    }
  }
  std::vector<ml::KMeansResult> prefilter_models;
  if (config.prefilter_clusters > 0) {
    // Each active party clusters its own columns once per Run — local
    // plaintext work (no protocol traffic), charged as parallel compute.
    prefilter_models.resize(p);
    double worst_seconds = 0.0;
    for (size_t party : active) {
      VFPS_ASSIGN_OR_RETURN(
          prefilter_models[party],
          ml::KMeansCluster(party_blocks_[party], config.prefilter_clusters,
                            config.seed + party, kPrefilterKmeansIters));
      worst_seconds = std::max(
          worst_seconds,
          static_cast<double>(kPrefilterKmeansIters) *
              static_cast<double>(prefilter_models[party].clusters) *
              cost_->DistanceSeconds(n, (*partition_)[party].size()));
    }
    clock_->Advance(CostCategory::kCompute, worst_seconds);
    shard_rt.prefilter = &prefilter_models;
    // Nominating ~4k rows per party keeps recall high while still pruning
    // the overwhelming majority of a large shard plan.
    shard_rt.prefilter_target = std::max<size_t>(4 * config.k, 32);
  }
  if (obs_ != nullptr && multi_shard) {
    shard_rt.sim_ns.resize(shard_rt.plan.size());
    shard_rt.candidates.resize(shard_rt.plan.size());
    for (size_t s = 0; s < shard_rt.plan.size(); ++s) {
      const std::string label = StrFormat("%zu", s);
      shard_rt.sim_ns[s] =
          obs_->GetLabeledCounter("knn.shard.sim_ns", {{"shard", label}});
      shard_rt.candidates[s] =
          obs_->GetLabeledCounter("knn.shard.candidates", {{"shard", label}});
    }
  }

  // Resolve BASE-mode cross-query slot batching (FedKnnConfig::query_group):
  // group G consecutive queries into one task that shares one encrypted
  // aggregation round per shard. G = 1 (the default, and always for Fagin/TA)
  // keeps the one-task-per-query schedule bit-identical to previous releases;
  // query_group = 0 auto-sizes the group so each party's packed vector fills
  // the backend's ciphertext slots. A query puts at most n-1 rows into a
  // one-shard plan's round, and at most the largest shard's rows (the query
  // may sit in another shard) into a sharded one.
  size_t group = 1;
  if (config.mode == KnnOracleMode::kBase) {
    group = config.query_group;
    if (group == 0) {
      const size_t count = multi_shard ? shard_rt.plan.front().rows() : n - 1;
      group = std::max<size_t>(1, backend_->SlotsPerCiphertext() / count);
    }
    group = std::min(std::max<size_t>(1, group), queries.size());
  }
  const size_t num_units = (queries.size() + group - 1) / group;

  // Bind (or re-validate) the contribution cache against this run's protocol
  // shape. A key mismatch — different seed, mode, k, query count, batching or
  // dataset size — clears the cache, so stale contributions can never leak
  // into a differently-shaped run.
  if (cache_ != nullptr) {
    cache_->Rekey({config.seed, static_cast<int>(config.mode), config.k,
                   num_queries, config.fagin_batch, group, n, num_units,
                   config.shards, config.prefilter_clusters});
  }

  // Pre-derive one HE randomness stream per task unit (== per query when
  // group is 1), in unit order, so the ciphertexts each task produces are
  // independent of scheduling.
  Rng stream_rng(config.seed ^ kHeStreamSalt);
  std::vector<uint64_t> stream_seeds(num_units);
  for (uint64_t& s : stream_seeds) s = stream_rng.Next();

  // Same trick for fault streams: each task's network gets its own seed,
  // pre-derived serially from the plan seed, so the fault schedule is
  // reproducible at any thread count.
  std::vector<uint64_t> fault_seeds;
  if (network_->faults_enabled()) {
    Rng fault_rng(network_->fault_seed() ^ kFaultStreamSalt);
    fault_seeds.resize(num_units);
    for (uint64_t& s : fault_seeds) s = fault_rng.Next();
  }

  // Per-task state: every unit (one query, or a grouped span of queries)
  // runs its complete protocol against a task-local deployment (HE session,
  // byte-metered network, clock), merged back below in deterministic query
  // order.
  struct QuerySlot {
    Status status = Status::OK();
    std::vector<QueryNeighborhood> hoods;
    FedKnnStats stats;
    net::SimNetwork net;
    SimClock clock;
    std::unique_ptr<he::HeBackend> session;
    CachedUnit produced;      // contributions staged for the repair cache
    double wall_seconds = 0;  // real time this unit's task spent
  };
  std::vector<QuerySlot> slots(num_units);

  // One root span ("knn.query") per unit: the task adopts the caller's trace
  // context, so at any thread count the whole protocol tree of a unit —
  // phases, per-party work, retries, fault instants — is a single connected
  // subtree of the selection that requested it.
  const auto run_unit = [&](size_t u) {
    QuerySlot& slot = slots[u];
    Stopwatch unit_watch;
    obs::TraceScope trace_scope(tracer, parent_ctx);
    obs::Span unit_span(tracer, "knn.query", &slot.clock);
    if (tracer != nullptr) {  // skip the StrFormat work when disabled
      unit_span.Annotate("unit", StrFormat("%zu", u));
      unit_span.Annotate("algo", KnnOracleModeName(config.mode));
      unit_span.Annotate("query_row", StrFormat("%zu", queries[u * group]));
    }
    slot.status = [&]() -> Status {
      VFPS_ASSIGN_OR_RETURN(slot.session, backend_->Fork(stream_seeds[u]));
      slot.net.set_metrics(obs_);
      if (!fault_seeds.empty()) {
        slot.net.EnableFaults(*network_->fault_spec(), fault_seeds[u],
                              &slot.clock);
      }
      apply_membership_marks(&slot.net);
      net::ReliableChannel chan(&slot.net, &slot.clock, retry);
      // Pre-filtered runs bypass the cache: the nominated candidate set is a
      // union over the active parties, so it moves with membership and
      // cached per-party values would no longer line up with it.
      const bool cached = cache_ != nullptr && shard_rt.prefilter == nullptr;
      const QueryEnv env{slot.session.get(), &slot.net, &chan,
                         &slot.clock,         &active,   tracer,
                         &config,             &shard_rt, &pseudo,
                         cached ? cache_->unit(u) : nullptr,
                         cached ? &slot.produced : nullptr};
      const size_t lo = u * group;
      const size_t hi = std::min(queries.size(), lo + group);
      VFPS_ASSIGN_OR_RETURN(
          slot.hoods, RunUnit(env, queries.data() + lo, hi - lo, &slot.stats));
      return Status::OK();
    }();
    unit_span.End();
    slot.wall_seconds = unit_watch.ElapsedSeconds();
  };

  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->ParallelFor(0, num_units, run_unit);
  } else {
    for (size_t u = 0; u < num_units; ++u) run_unit(u);
  }

  // Every slot absorbs whatever contributions it staged into the repair
  // cache — on success AND on failure. All units execute regardless of which
  // one fails, and each unit is internally deterministic, so the salvaged
  // cache contents are independent of the thread count.
  std::vector<const net::SimNetwork*> unit_nets;
  for (size_t u = 0; u < slots.size(); ++u) {
    if (cache_ != nullptr) cache_->Absorb(u, std::move(slots[u].produced));
    unit_nets.push_back(&slots[u].net);
  }

  // Failed run: report the first error in query order without merging any
  // task-local protocol state, so a quarantine-and-rerun starts from a clean
  // slate — except for the contribution cache, which keeps the surviving
  // parties' work for incremental repair.
  for (const QuerySlot& slot : slots) {
    if (slot.status.ok()) continue;
    report_churn(unit_nets, /*failed=*/true);
    return slot.status;
  }

  // Deterministic merge: fold every task-local deployment back into the
  // shared one in query order (clock charges are doubles, so the fold order
  // is part of the bit-identical guarantee).
  std::vector<QueryNeighborhood> result;
  result.reserve(queries.size());
  for (QuerySlot& slot : slots) {
    for (QueryNeighborhood& hood : slot.hoods) {
      result.push_back(std::move(hood));
    }
    if (h_unit_sim_ns_ != nullptr) {
      // Recorded serially in unit order. The sim-clock latency is a
      // deterministic function of the protocol, so the knn.query.sim_ns
      // histogram (and its percentiles) is thread-count-invariant; wall time
      // is real elapsed time and naturally varies.
      h_unit_sim_ns_->Record(static_cast<uint64_t>(
          std::llround(slot.clock.Total() * 1e9)));
      h_unit_wall_ns_->Record(static_cast<uint64_t>(
          std::llround(slot.wall_seconds * 1e9)));
    }
    clock_->Merge(slot.clock);
    network_->MergeStatsFrom(slot.net);
    backend_->AbsorbStats(slot.session->stats());
    if (stats != nullptr) {
      stats->candidates_encrypted += slot.stats.candidates_encrypted;
      stats->fagin_depth += slot.stats.fagin_depth;
      stats->reused_contributions += slot.stats.reused_contributions;
      stats->he_ops.Merge(slot.session->stats());
    }
  }

  if (c_queries_ != nullptr) {
    c_queries_->Add(queries.size());
    c_queries_mode_[static_cast<int>(config.mode)]->Add(queries.size());
  }
  report_churn(unit_nets, /*failed=*/false);
  if (stats != nullptr) {
    stats->queries += queries.size();
    net::TrafficStats after = network_->total();
    stats->traffic.messages += after.messages - traffic_before.messages;
    stats->traffic.bytes += after.bytes - traffic_before.bytes;
  }
  return result;
}

Result<std::vector<QueryNeighborhood>> FederatedKnnOracle::RunUnit(
    const QueryEnv& env, const size_t* queries, size_t g,
    FedKnnStats* stats) const {
  const ShardRuntime& rt = *env.shards;
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const size_t k = env.config->k;
  const bool ranked = env.config->mode != KnnOracleMode::kBase;
  const bool multi = rt.plan.size() > 1;
  // Ids on the wire: pseudo ids in the top-k modes, compressed row indices
  // (the query row squeezed out) in BASE.
  const auto wire_id = [&](uint64_t row, uint64_t query_row) -> uint64_t {
    if (ranked) return env.pseudo->ToPseudo(row);
    return row < query_row ? row : row - 1;
  };

  // Optional TreeCSS-style pre-filter: nomination happens once per query,
  // BEFORE any distance or HE work; every shard then touches only its slice
  // of the nominated rows.
  std::vector<std::vector<uint64_t>> nominated(
      rt.prefilter != nullptr ? g : 0);
  for (size_t q = 0; q < nominated.size(); ++q) {
    VFPS_ASSIGN_OR_RETURN(nominated[q],
                          RunPrefilterExchange(env, rt, queries[q]));
  }

  // Shard loop: the complete round (partial distances -> [Fagin/TA
  // narrowing] -> encrypt -> aggregate -> decrypt -> shard-local SmallestK)
  // runs per shard, so only O(shard) protocol state is live; each shard
  // leaves at most k nominees per query behind (and, to be merged, their
  // shard top-k list).
  std::vector<std::vector<Nominee>> nominees(g);
  std::vector<std::vector<topk::ShardTopk>> shard_tops(g);
  std::vector<uint64_t> candidates(g, 0);
  uint64_t depth = 0;
  std::vector<Slice> slices(g);
  PartyPartials partials;
  Round round;
  for (size_t s = 0; s < rt.plan.size(); ++s) {
    size_t items = 0;
    for (size_t q = 0; q < g; ++q) {
      items += BuildSlice(env, s, queries[q],
                          nominated.empty() ? nullptr : &nominated[q],
                          &slices[q]);
    }
    if (items == 0) continue;

    Phase shard_phase(multi ? env.tracer : nullptr, env.clock, "knn.shard",
                      "parties", rt.sim_ns.empty() ? nullptr : rt.sim_ns[s]);
    if (multi && env.tracer != nullptr) {
      shard_phase.span().Annotate("shard", StrFormat("%zu", s));
      shard_phase.span().Annotate("rows", StrFormat("%zu", items));
    }
    if (!rt.candidates.empty()) rt.candidates[s]->Add(items);

    ComputePartials(env, s, slices, &partials, stats);

    // The top-k modes first narrow the shard to Fagin/TA's candidate set and
    // announce it; BASE encrypts every item (and may reuse the ciphertexts
    // the server holds for cached parties).
    std::vector<uint64_t> announce;
    round.announce = ranked ? &announce : nullptr;
    if (ranked) {
      VFPS_RETURN_NOT_OK(
          NarrowCandidates(env, s, &slices[0], &partials, &depth));
      for (uint64_t row : slices[0].rows) {
        announce.push_back(env.pseudo->ToPseudo(row));
      }
    }
    round.segments.clear();
    for (size_t q = 0; q < g; ++q) {
      round.segments.push_back(slices[q].rows.size());
      candidates[q] += slices[q].rows.size();
    }
    VFPS_RETURN_NOT_OK(
        AggregationRound(env, s, partials.values, partials.hits, &round));

    // Shard top-k per query, with each entry's partials kept for the d_T
    // exchange (k per shard, so nothing is recomputed later).
    size_t offset = 0;
    for (size_t q = 0; q < g; ++q) {
      std::vector<Nominee>& list = nominees[q];
      const size_t first = list.size();
      for (uint64_t li : round.top[q]) {
        Nominee& nominee = list.emplace_back();
        nominee.value = round.aggregate[offset + li];
        nominee.row = slices[q].rows[li];
        nominee.id = wire_id(nominee.row, queries[q]);
        for (size_t ai = 0; ai < a; ++ai) {
          nominee.partials.push_back(partials.values[ai][offset + li]);
        }
      }
      offset += slices[q].rows.size();
      if (!multi) continue;
      // The merge wants (value, id) order; SmallestK broke ties by item
      // position, which in the top-k modes is Fagin's seen order.
      std::sort(list.begin() + first, list.end(),
                [](const Nominee& x, const Nominee& y) {
                  return x.value != y.value ? x.value < y.value : x.id < y.id;
                });
      topk::ShardTopk& top = shard_tops[q].emplace_back();
      for (size_t i = first; i < list.size(); ++i) {
        top.values.push_back(list[i].value);
        top.ids.push_back(list[i].id);
      }
    }
  }

  // Hierarchical merge at the leader: tournament rounds over the shard
  // top-ks, lossless and associative, so the result equals the top-k of the
  // concatenated candidate set. A one-shard plan's top-k is already final.
  Phase phase_merge(multi ? env.tracer : nullptr, env.clock, "knn.topk_merge",
                    "leader", multi ? c_phase_merge_ : nullptr);
  for (size_t q = 0; q < g && multi; ++q) {
    topk::ShardMergeStats merge_stats;
    VFPS_ASSIGN_OR_RETURN(auto merged,
                          topk::HierarchicalTopkMerge(std::move(shard_tops[q]),
                                                      k, &merge_stats));
    env.clock->Advance(CostCategory::kCompute,
                       cost_->SortSeconds(merge_stats.entries_in));
    if (c_shard_merges_ != nullptr) c_shard_merges_->Add(merge_stats.merges);
    std::vector<Nominee> winners;
    for (uint64_t id : merged.ids) {
      winners.push_back(std::move(*std::find_if(
          nominees[q].begin(), nominees[q].end(),
          [id](const Nominee& x) { return x.id == id; })));
    }
    nominees[q] = std::move(winners);
  }
  phase_merge.End();

  std::vector<QueryNeighborhood> hoods(g);
  VFPS_RETURN_NOT_OK(ExchangeDt(env, queries, nominees, &hoods));

  if (h_candidates_ != nullptr) {
    for (uint64_t c : candidates) h_candidates_->Record(c);
  }
  if (stats != nullptr) {
    for (uint64_t c : candidates) stats->candidates_encrypted += c;
    stats->fagin_depth += depth;
  }
  return hoods;
}

size_t FederatedKnnOracle::BuildSlice(const QueryEnv& env, size_t shard,
                                      uint64_t query_row,
                                      const std::vector<uint64_t>* nominated,
                                      Slice* slice) const {
  const data::RowShard& range = env.shards->plan[shard];
  const bool ranked = env.config->mode != KnnOracleMode::kBase;
  slice->query_row = query_row;
  if (nominated != nullptr) {
    // The nominated rows of this shard (ascending; the query is never one).
    const auto first = std::lower_bound(nominated->begin(), nominated->end(),
                                        static_cast<uint64_t>(range.begin));
    const auto last = std::lower_bound(first, nominated->end(),
                                       static_cast<uint64_t>(range.end));
    slice->rows.assign(first, last);
    if (ranked) {
      std::sort(slice->rows.begin(), slice->rows.end(),
                [&env](uint64_t x, uint64_t y) {
                  return env.pseudo->ToPseudo(x) < env.pseudo->ToPseudo(y);
                });
    }
    return slice->rows.size();
  }
  if (ranked) {
    slice->rows = env.shards->ranked_rows[shard];
    return slice->rows.size() - (range.contains(query_row) ? 1 : 0);
  }
  slice->rows.clear();
  for (size_t row = range.begin; row < range.end; ++row) {
    if (row != query_row) slice->rows.push_back(row);
  }
  return slice->rows.size();
}

void FederatedKnnOracle::ComputePartials(const QueryEnv& env, size_t shard,
                                         const std::vector<Slice>& slices,
                                         PartyPartials* out,
                                         FedKnnStats* stats) const {
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const data::RowShard& range = env.shards->plan[shard];
  const bool ranked = env.config->mode != KnnOracleMode::kBase;
  const bool dense = env.shards->prefilter == nullptr;
  size_t total = 0;
  for (const Slice& slice : slices) total += slice.rows.size();

  // Repair-cache lookup: a party's contribution is reusable only when it
  // covers this shard's full item range and carries what the round needs
  // (the values, which a ranking is resumed or rebuilt from, or the
  // ciphertext the server still holds).
  const auto cached_for = [&](size_t party) -> const PartyUnitState* {
    if (env.cached == nullptr) return nullptr;
    const auto it = env.cached->entries.find({shard, party});
    if (it == env.cached->entries.end()) return nullptr;
    const PartyUnitState& st = it->second;
    const bool complete = ranked || st.has_cipher;
    return (complete && st.values.size() == total) ? &st : nullptr;
  };

  // Active participants, in parallel: local partial distances (the top-k
  // modes charge the sub-ranking sort here; NarrowCandidates performs it as
  // deep as it is read). Parties with a cached contribution skip the work —
  // on repair only the membership delta pays.
  Phase phase_dist(env.tracer, env.clock, "knn.partial_distance", "parties",
                   c_phase_dist_);
  out->values.resize(a);
  out->rankings.assign(ranked ? a : 0, {});
  out->hits.assign(a, nullptr);
  out->prior_depth.assign(a, 0);
  std::vector<double> compute_seconds;
  compute_seconds.reserve(a);
  thread_local std::vector<double> qslice;  // per-thread scratch
  thread_local std::vector<double> scratch;
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    if (const PartyUnitState* st = cached_for(party)) {
      out->hits[ai] = st;
      out->values[ai] = st->values;
      if (ranked) {
        out->rankings[ai] = st->ranking;
        out->prior_depth[ai] = st->streamed_depth;
      }
      if (stats != nullptr) ++stats->reused_contributions;
      if (c_cache_hit_ != nullptr) c_cache_hit_->Add(1);
      continue;
    }
    if (env.cached != nullptr && c_cache_miss_ != nullptr) {
      c_cache_miss_->Add(1);
    }
    obs::Span party_span(env.tracer, "knn.party.compute", env.clock);
    party_span.SetNode(net::NodeName(static_cast<int>(party)));
    const ml::FeatureBlock& block = party_blocks_[party];
    std::vector<double>& values = out->values[ai];
    values.resize(total);
    double seconds = 0.0;
    size_t offset = 0;
    for (const Slice& slice : slices) {
      const double q_norm =
          GatherQuery(block, joint_->Row(slice.query_row), &qslice);
      double* dst = values.data() + offset;
      // Each row's value is independent of a sweep's bounds, so range
      // sweeps, split sweeps and single-row calls all agree bit for bit.
      if (dense && !ranked) {
        // BASE: the shard's rows in order minus the query — two sweeps
        // around the query write the slice in place.
        const size_t cut =
            range.contains(slice.query_row) ? slice.query_row : range.end;
        ml::BlockSquaredDistances(block, qslice.data(), q_norm, range.begin,
                                  cut, dst);
        if (cut < range.end) {
          ml::BlockSquaredDistances(block, qslice.data(), q_norm, cut + 1,
                                    range.end, dst + (cut - range.begin));
        }
      } else if (dense) {
        // Top-k modes: one sweep, gathered into pseudo-id order, with the
        // query's own row as a +inf item.
        scratch.resize(range.rows());
        ml::BlockSquaredDistances(block, qslice.data(), q_norm, range.begin,
                                  range.end, scratch.data());
        for (size_t i = 0; i < slice.rows.size(); ++i) {
          const uint64_t row = slice.rows[i];
          dst[i] = row == slice.query_row ? kQueryScore
                                          : scratch[row - range.begin];
        }
      } else {
        for (size_t i = 0; i < slice.rows.size(); ++i) {
          const size_t row = static_cast<size_t>(slice.rows[i]);
          ml::BlockSquaredDistances(block, qslice.data(), q_norm, row, row + 1,
                                    dst + i);
        }
      }
      seconds += cost_->DistanceSeconds(slice.rows.size(), block.cols());
      offset += slice.rows.size();
    }
    if (ranked) {
      seconds += cost_->SortSeconds(total);
      if (env.fresh != nullptr) {
        // Stage the values now so a later-phase failure still salvages this
        // party's work (the ranking and streamed_depth follow after
        // narrowing).
        env.fresh->entries[{shard, party}].values = values;
      }
    }
    compute_seconds.push_back(seconds);
  }
  if (!compute_seconds.empty()) {
    ChargeParallelCompute(env.clock, compute_seconds);
  }
}

Status FederatedKnnOracle::NarrowCandidates(const QueryEnv& env, size_t shard,
                                            Slice* slice, PartyPartials* in,
                                            uint64_t* depth_out) const {
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const size_t k = env.config->k;
  const size_t batch = env.config->fagin_batch;
  const bool threshold = env.config->mode == KnnOracleMode::kThreshold;

  // The server's phase-1 merge over the parties' sub-rankings.
  Phase phase_merge(env.tracer, env.clock, "knn.topk_merge", "agg-server",
                    c_phase_merge_);
  VFPS_ASSIGN_OR_RETURN(auto lists,
                        topk::RankedListSet::Build(std::move(in->values),
                                                   std::move(in->rankings)));
  topk::TopkResult merge;
  if (threshold) {
    VFPS_ASSIGN_OR_RETURN(merge, topk::ThresholdTopk(lists, k, obs_));
  } else {
    VFPS_ASSIGN_OR_RETURN(merge, topk::FaginTopk(lists, k, batch, obs_));
  }
  phase_merge.End();

  // Mini-batch streaming of the sub-rankings (pseudo ids on the wire). The
  // phase-1 depth of the merge algorithm determines how many rounds happen.
  Phase phase_stream(env.tracer, env.clock, "knn.stream_rankings", "parties",
                     c_phase_stream_);
  const size_t depth = merge.depth;
  for (size_t start = 0; start < depth; start += batch) {
    const size_t end = std::min(depth, start + batch);
    size_t senders = 0;
    for (size_t ai = 0; ai < a; ++ai) {
      // Parties whose cached sub-ranking already streamed past this round
      // stay silent; a party partially covered sends only the missing tail.
      if (in->prior_depth[ai] >= end) continue;
      const size_t from = std::max(start, in->prior_depth[ai]);
      std::vector<uint64_t> chunk;
      chunk.reserve(end - from);
      for (size_t r = from; r < end; ++r) {
        chunk.push_back(
            env.pseudo->ToPseudo(slice->rows[lists.IdAtRank(ai, r)]));
      }
      VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                        net::kAggregationServer,
                                        EncodeIds(chunk)));
      VFPS_RETURN_NOT_OK(env.chan->Recv(static_cast<int>(active[ai]),
                                        net::kAggregationServer)
                             .status());
      ++senders;
    }
    if (senders > 0) {
      ChargeFanIn(env.clock, (end - start) * sizeof(uint64_t), senders);
    }
  }
  if (env.fresh != nullptr) {
    for (size_t ai = 0; ai < a; ++ai) {
      // Every party keeps its sorted prefix as deep as this run sorted it:
      // fresh parties in their staged entry, cached parties whose prefix this
      // run extended in a depth-only entry, so no later repair sorts those
      // rows again.
      const PartyUnitState* hit = in->hits[ai];
      if (hit == nullptr || lists.sorted(ai) > hit->ranking.size()) {
        env.fresh->entries[{shard, active[ai]}].ranking =
            lists.SortedPrefix(ai);
      }
      if (in->prior_depth[ai] >= depth) continue;
      // Fresh parties already have a staged entry; for cached parties that
      // streamed deeper this creates (or extends) the depth-only entry.
      env.fresh->entries[{shard, active[ai]}].streamed_depth = depth;
    }
  }
  env.clock->Advance(CostCategory::kCompute,
                     static_cast<double>(merge.sorted_accesses) *
                         cost_->compare_seconds);
  if (threshold) {
    // TA's stopping rule needs the aggregate score of each round's frontier:
    // every participant encrypts one frontier value, the server sums them,
    // and the leader decrypts the threshold — once per streamed round.
    const double rounds = std::ceil(static_cast<double>(depth) /
                                    static_cast<double>(batch));
    env.clock->Advance(CostCategory::kEncrypt,
                       rounds * cost_->EncryptSecondsFor(1));
    env.clock->Advance(CostCategory::kHeEval,
                       rounds * static_cast<double>(a - 1) *
                           cost_->HeAddSecondsFor(1));
    env.clock->Advance(CostCategory::kDecrypt,
                       rounds * cost_->DecryptSecondsFor(1));
    env.clock->Advance(
        CostCategory::kNetwork,
        rounds * cost_->NetworkSeconds(cost_->EncryptedWireBytes(1) *
                                           (static_cast<uint64_t>(a) + 1),
                                       2));
  }
  phase_stream.End();

  // Candidate set: everything seen during phase 1, minus the query itself.
  // The slice and the parties' values shrink to it; its values depend on the
  // membership, so no server-held ciphertext applies to it.
  std::vector<uint64_t> rows;
  std::vector<std::vector<double>> values(a);
  for (uint64_t item : merge.candidate_ids) {
    if (slice->rows[item] == slice->query_row) continue;
    rows.push_back(slice->rows[item]);
    for (size_t ai = 0; ai < a; ++ai) {
      values[ai].push_back(lists.Score(ai, item));
    }
  }
  slice->rows = std::move(rows);
  in->values = std::move(values);
  in->hits.clear();
  *depth_out += depth;
  return Status::OK();
}

Status FederatedKnnOracle::AggregationRound(
    const QueryEnv& env, size_t shard,
    const std::vector<std::vector<double>>& values,
    const std::vector<const PartyUnitState*>& held, Round* round) const {
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  size_t count = 0;
  for (size_t len : round->segments) count += len;
  const auto is_held = [&held](size_t ai) {
    return !held.empty() && held[ai] != nullptr;
  };

  // Parties encrypt their vectors as one batch (identical ciphertexts at any
  // thread count, see HeBackend::EncryptBatch) and upload them; parties whose
  // ciphertext the server already holds stay silent. In the top-k modes the
  // server first broadcasts the candidate ids the values belong to.
  Phase phase_enc(env.tracer, env.clock, "he.encrypt", "parties",
                  c_phase_encrypt_);
  if (round->announce != nullptr) {
    for (size_t party : active) {
      VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer,
                                        static_cast<int>(party),
                                        EncodeIds(*round->announce)));
    }
    ChargeFanOut(env.clock, round->announce->size() * sizeof(uint64_t), a);
    for (size_t party : active) {
      VFPS_ASSIGN_OR_RETURN(auto payload,
                            env.chan->Recv(net::kAggregationServer,
                                           static_cast<int>(party)));
      VFPS_RETURN_NOT_OK(DecodeIds(payload).status());
    }
  }
  size_t fresh = 0;
  std::vector<std::vector<double>> subset;  // copies only when some are held
  for (size_t ai = 0; ai < a; ++ai) fresh += is_held(ai) ? 0 : 1;
  for (size_t ai = 0; ai < a && fresh < a; ++ai) {
    if (!is_held(ai)) subset.push_back(values[ai]);
  }
  const std::vector<std::vector<double>>& batch = fresh < a ? subset : values;
  if (fresh > 0) {
    VFPS_ASSIGN_OR_RETURN(auto encrypted, env.backend->EncryptBatch(batch));
    size_t fi = 0;
    for (size_t ai = 0; ai < a; ++ai) {
      if (is_held(ai)) continue;
      if (!c_party_enc_values_.empty()) {
        c_party_enc_values_[active[ai]]->Add(count);
      }
      VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                        net::kAggregationServer,
                                        std::move(encrypted[fi++].blob)));
    }
    env.clock->Advance(CostCategory::kEncrypt, cost_->EncryptSecondsFor(count));
    ChargeFanIn(env.clock, cost_->EncryptedWireBytes(count), fresh);
  }
  phase_enc.End();

  // Aggregation server: homomorphic sum over the ciphertexts it holds plus
  // the fresh uploads, in ascending active order so a repair sums
  // bit-identically to a clean run; forward to the leader.
  Phase phase_agg(env.tracer, env.clock, "knn.aggregate", "agg-server",
                  c_phase_agg_);
  std::vector<he::EncryptedVector> received(a);
  std::vector<const he::EncryptedVector*> ptrs(a);
  for (size_t ai = 0; ai < a; ++ai) {
    if (is_held(ai)) {
      ptrs[ai] = &held[ai]->cipher;
      continue;
    }
    VFPS_ASSIGN_OR_RETURN(auto blob,
                          env.chan->Recv(static_cast<int>(active[ai]),
                                         net::kAggregationServer));
    received[ai] = he::EncryptedVector{std::move(blob), count};
    ptrs[ai] = &received[ai];
    if (!held.empty() && env.fresh != nullptr) {
      PartyUnitState& st = env.fresh->entries[{shard, active[ai]}];
      st.values = values[ai];
      st.cipher = received[ai];
      st.has_cipher = true;
    }
  }
  VFPS_ASSIGN_OR_RETURN(auto summed, env.backend->Sum(ptrs));
  env.clock->Advance(CostCategory::kHeEval, static_cast<double>(a - 1) *
                                                cost_->HeAddSecondsFor(count));
  VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer, kLeader,
                                    std::move(summed.blob)));
  ChargeFanOut(env.clock, cost_->EncryptedWireBytes(count), 1);
  phase_agg.End();

  // Leader: ONE decrypt for the round, then rank each segment of the sum.
  Phase phase_rank(env.tracer, env.clock, "knn.decrypt_rank", "leader",
                   c_phase_rank_);
  VFPS_ASSIGN_OR_RETURN(auto blob,
                        env.chan->Recv(net::kAggregationServer, kLeader));
  VFPS_ASSIGN_OR_RETURN(
      round->aggregate,
      env.backend->Decrypt(he::EncryptedVector{std::move(blob), count}));
  env.clock->Advance(CostCategory::kDecrypt, cost_->DecryptSecondsFor(count));
  round->top.resize(round->segments.size());
  size_t offset = 0;
  for (size_t i = 0; i < round->segments.size(); ++i) {
    const size_t len = round->segments[i];
    env.clock->Advance(CostCategory::kCompute, cost_->SortSeconds(len));
    round->top[i] =
        SmallestK(round->aggregate.data() + offset, len, env.config->k);
    offset += len;
  }
  return Status::OK();
}

Status FederatedKnnOracle::ExchangeDt(
    const QueryEnv& env, const size_t* queries,
    const std::vector<std::vector<Nominee>>& winners,
    std::vector<QueryNeighborhood>* hoods) const {
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  Phase phase_dt(env.tracer, env.clock, "knn.dt_exchange", "leader",
                 c_phase_dt_);
  for (size_t q = 0; q < winners.size(); ++q) {
    QueryNeighborhood& hood = (*hoods)[q];
    hood.query_row = queries[q];
    std::vector<uint64_t> ids;
    for (const Nominee& w : winners[q]) {
      hood.neighbors.push_back(w.row);
      ids.push_back(w.id);
    }
    for (size_t party : active) {
      if (party == 0) continue;
      VFPS_RETURN_NOT_OK(
          env.chan->Send(kLeader, static_cast<int>(party), EncodeIds(ids)));
    }
    ChargeFanOut(env.clock, ids.size() * sizeof(uint64_t), a - 1);
    // Quarantined slots keep d_T^p = 0 (the caller drops them anyway).
    hood.per_party_dt.assign(num_participants(), 0.0);
    for (size_t ai = 0; ai < a; ++ai) {
      const size_t party = active[ai];
      if (party != 0) {
        VFPS_ASSIGN_OR_RETURN(auto payload,
                              env.chan->Recv(kLeader, static_cast<int>(party)));
        VFPS_RETURN_NOT_OK(DecodeIds(payload).status());
      }
      double dt = 0.0;
      for (const Nominee& w : winners[q]) dt += w.partials[ai];
      if (party == 0) {
        hood.per_party_dt[0] = dt;
      } else {
        VFPS_RETURN_NOT_OK(
            env.chan->Send(static_cast<int>(party), kLeader, EncodeScalar(dt)));
        VFPS_ASSIGN_OR_RETURN(auto payload,
                              env.chan->Recv(static_cast<int>(party), kLeader));
        VFPS_ASSIGN_OR_RETURN(hood.per_party_dt[party], DecodeScalar(payload));
      }
    }
    ChargeFanIn(env.clock, sizeof(double), a - 1);
  }
  return Status::OK();
}

Result<std::vector<uint64_t>> FederatedKnnOracle::RunPrefilterExchange(
    const QueryEnv& env, const ShardRuntime& rt, uint64_t query_row) const {
  const size_t n = joint_->num_samples();
  const std::vector<size_t>& active = *env.active;
  const size_t a = active.size();
  const std::vector<ml::KMeansResult>& models = *rt.prefilter;

  obs::Span span(env.tracer, "knn.prefilter", env.clock);
  span.SetNode("parties");
  // Each party ranks its clusters by centroid distance to its slice of the
  // query and nominates the nearest clusters' member rows until the coverage
  // target is met. Plaintext and party-local; only row ids cross the wire.
  std::vector<std::vector<uint64_t>> nominated(a);
  std::vector<uint8_t> mask(n, 0);
  double worst_seconds = 0.0;
  const double* qrow = joint_->Row(query_row);
  for (size_t ai = 0; ai < a; ++ai) {
    const size_t party = active[ai];
    const ml::KMeansResult& km = models[party];
    const ml::FeatureBlock& block = party_blocks_[party];
    std::vector<double> qslice(block.cols());
    block.GatherInto(qrow, qslice.data());
    const double q_norm = ml::SquaredNorm(qslice.data(), block.cols());
    std::vector<std::pair<double, uint32_t>> ranked;
    ranked.reserve(km.clusters);
    for (size_t c = 0; c < km.clusters; ++c) {
      const double* centroid = km.centroid(c);
      const double dot = ml::DotProduct(qslice.data(), centroid, block.cols());
      const double c_norm = ml::SquaredNorm(centroid, block.cols());
      ranked.emplace_back(q_norm + c_norm - 2.0 * dot,
                          static_cast<uint32_t>(c));
    }
    std::sort(ranked.begin(), ranked.end());
    size_t covered = 0;
    for (const auto& [dist, c] : ranked) {
      (void)dist;
      for (uint32_t row : km.members[c]) {
        nominated[ai].push_back(row);
        if (row != query_row) mask[row] = 1;
      }
      covered += km.members[c].size();
      if (covered >= rt.prefilter_target) break;
    }
    worst_seconds = std::max(
        worst_seconds, cost_->DistanceSeconds(km.clusters, block.cols()));
  }
  env.clock->Advance(CostCategory::kCompute, worst_seconds);

  // Nomination exchange: parties upload their lists, the server broadcasts
  // the deduplicated union — same wire shape as the Fagin candidate exchange.
  uint64_t fan_in_worst = 0;
  for (size_t ai = 0; ai < a; ++ai) {
    VFPS_RETURN_NOT_OK(env.chan->Send(static_cast<int>(active[ai]),
                                      net::kAggregationServer,
                                      EncodeIds(nominated[ai])));
    VFPS_RETURN_NOT_OK(env.chan->Recv(static_cast<int>(active[ai]),
                                      net::kAggregationServer)
                           .status());
    fan_in_worst =
        std::max(fan_in_worst, static_cast<uint64_t>(nominated[ai].size()) *
                                   sizeof(uint64_t));
  }
  ChargeFanIn(env.clock, fan_in_worst, a);

  std::vector<uint64_t> candidates;
  for (size_t row = 0; row < n; ++row) {
    if (mask[row] != 0) candidates.push_back(row);
  }
  for (size_t party : active) {
    VFPS_RETURN_NOT_OK(env.chan->Send(net::kAggregationServer,
                                      static_cast<int>(party),
                                      EncodeIds(candidates)));
    VFPS_RETURN_NOT_OK(
        env.chan->Recv(net::kAggregationServer, static_cast<int>(party))
            .status());
  }
  ChargeFanOut(env.clock, candidates.size() * sizeof(uint64_t), a);

  if (c_prefilter_candidates_ != nullptr) {
    c_prefilter_candidates_->Add(candidates.size());
    c_prefilter_pruned_->Add((n - 1) - candidates.size());
  }
  return candidates;
}

Result<std::vector<int>> FederatedKnnOracle::ClassifyPredictions(
    const data::Dataset& queries, const std::vector<size_t>& participants,
    size_t k, bool charge_costs) {
  VFPS_CHECK_ARG(!participants.empty(), "fed-knn: empty sub-consortium");
  VFPS_CHECK_ARG(queries.num_features() == joint_->num_features(),
                 "fed-knn: query feature width mismatch");
  for (size_t party : participants) {
    VFPS_CHECK_ARG(party < num_participants(),
                   "fed-knn: participant out of range");
  }
  const size_t n = joint_->num_samples();
  const size_t s = participants.size();

  // Plaintext per-query scoring: rows are independent (disjoint output
  // slots, read-only inputs), so the pool can chew through them in any
  // order without affecting the predictions.
  std::vector<int> predictions(queries.num_samples());
  const auto classify_one = [&](size_t qi) {
    thread_local std::vector<double> qslice, partial;  // per-thread scratch
    std::vector<double> aggregate(n, 0.0);
    partial.resize(n);
    for (size_t party : participants) {
      const ml::FeatureBlock& block = party_blocks_[party];
      const double q_norm = GatherQuery(block, queries.Row(qi), &qslice);
      ml::BlockSquaredDistances(block, qslice.data(), q_norm, 0, n,
                                partial.data());
      for (size_t i = 0; i < n; ++i) aggregate[i] += partial[i];
    }
    const auto top = SmallestK(aggregate, k);
    std::vector<int> neighbor_labels;
    neighbor_labels.reserve(top.size());
    for (uint64_t idx : top) {
      neighbor_labels.push_back(joint_->Label(static_cast<size_t>(idx)));
    }
    predictions[qi] = ml::MajorityVote(neighbor_labels, joint_->num_classes());
  };
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    pool_->ParallelFor(0, queries.num_samples(), classify_one);
  } else {
    for (size_t qi = 0; qi < queries.num_samples(); ++qi) classify_one(qi);
  }

  if (charge_costs) {
    // Per query, the deployment would run the BASE aggregation over the
    // sub-consortium: parallel distance computation + encrypt-all + sum +
    // decrypt + rank.
    double max_party_seconds = 0.0;
    for (size_t party : participants) {
      max_party_seconds =
          std::max(max_party_seconds,
                   cost_->DistanceSeconds(n, (*partition_)[party].size()));
    }
    const double nq = static_cast<double>(queries.num_samples());
    const double network_per_query = cost_->NetworkSeconds(
        cost_->EncryptedWireBytes(n) * s + cost_->EncryptedWireBytes(n),
        static_cast<uint64_t>(s) + 1);
    clock_->Advance(CostCategory::kCompute,
                    nq * (max_party_seconds + cost_->SortSeconds(n)));
    clock_->Advance(CostCategory::kEncrypt, nq * cost_->EncryptSecondsFor(n));
    clock_->Advance(CostCategory::kHeEval,
                    nq * static_cast<double>(s - 1) * cost_->HeAddSecondsFor(n));
    clock_->Advance(CostCategory::kDecrypt, nq * cost_->DecryptSecondsFor(n));
    clock_->Advance(CostCategory::kNetwork, nq * network_per_query);
  }
  return predictions;
}

Result<double> FederatedKnnOracle::ClassifyAccuracy(
    const data::Dataset& queries, const std::vector<size_t>& participants,
    size_t k, bool charge_costs) {
  VFPS_ASSIGN_OR_RETURN(
      auto predictions, ClassifyPredictions(queries, participants, k, charge_costs));
  if (predictions.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    correct += (predictions[i] == queries.Label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

}  // namespace vfps::vfl
