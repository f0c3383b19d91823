#ifndef VFPS_VFL_FED_KNN_H_
#define VFPS_VFL_FED_KNN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "he/backend.h"
#include "ml/kernels.h"
#include "net/channel.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "topk/ranked_list.h"
#include "vfl/pseudo_id.h"
#include "vfl/selection_cache.h"

namespace vfps::obs {
class Counter;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace vfps::obs

namespace vfps::ml {
struct KMeansResult;
}  // namespace vfps::ml

namespace vfps::vfl {

/// How the k-nearest-neighbor oracle finds neighbors across participants.
enum class KnnOracleMode {
  kBase,   // VFPS-SM-BASE: encrypt ALL instances' partial distances per query
  kFagin,  // VFPS-SM: Fagin's algorithm narrows the encrypted candidate set
  /// Threshold algorithm (TA) variant: the paper notes VFPS-SM "also
  /// supports other top-k query algorithms". TA usually scans a shallower
  /// depth than FA but performs random accesses during phase 1; in the
  /// protocol this trades streamed ranking rows for per-item score requests.
  /// The candidate set it encrypts is TA's evaluated set.
  kThreshold,
};

const char* KnnOracleModeName(KnnOracleMode mode);

/// \brief Configuration of one selection-phase KNN pass.
struct FedKnnConfig {
  KnnOracleMode mode = KnnOracleMode::kFagin;
  size_t k = 10;            // neighbors per query
  size_t num_queries = 64;  // |Q|: training rows sampled as query samples
  size_t fagin_batch = 64;  // mini-batch rows streamed per participant round
  uint64_t seed = 42;       // shared consortium seed (queries, pseudo IDs)
  /// BASE-mode cross-query slot batching: how many queries share one
  /// encrypted aggregation round. Each participant concatenates the grouped
  /// queries' partial-distance vectors (stride N-1, identical layout across
  /// parties, ragged tail zero-masked by the encoder) into ONE packed
  /// Encrypt; the server performs slot-wise sums on the group and the leader
  /// issues one Decrypt per group. With G queries of N-1 candidates over
  /// S slots this costs ceil(G*(N-1)/S) ciphertexts per party instead of
  /// G*ceil((N-1)/S) — up to floor(S/(N-1))x fewer HE ops when candidate
  /// vectors underfill the slots. 1 (default) keeps the one-query-per-round
  /// protocol bit-identical to previous releases; 0 picks the largest group
  /// whose per-shard packed vector fits one of the backend's
  /// SlotsPerCiphertext(). Composes with `shards` (each shard's round packs
  /// the group's rows of that shard) and with the repair cache. Ignored by
  /// the Fagin/TA modes (their candidate sets are query-specific).
  size_t query_group = 1;
  /// Participants excluded from the protocol (crashed on a previous run and
  /// quarantined by the selector). The leader (0) can never be quarantined;
  /// at least two participants must remain active.
  std::vector<size_t> quarantined;
  /// Participants not yet part of the consortium (they have a pending join=
  /// rule); excluded exactly like quarantined, but reported as absent rather
  /// than dead. The selector admits them when a run observes their join
  /// threshold (FedKnnStats::joined_nodes) and moves them to `joined`.
  std::vector<size_t> absent;
  /// Join-rule participants already admitted on an earlier run: Run() calls
  /// MarkJoined on every fault stream so they are never absent again.
  std::vector<size_t> joined;
  /// Participants healed on an earlier run: Run() calls MarkHealed on every
  /// fault stream so their crash/leave rules (whose per-stream counters
  /// restart from zero) cannot re-fire and oscillate them back into
  /// quarantine.
  std::vector<size_t> healed;
  /// Reliable-channel retry budget; 0 keeps RetryPolicy's default. Exposed
  /// as --net-retries on the CLI.
  size_t net_retries = 0;
  /// Reliable-channel backoff jitter factor in [0, 1]; 0 (default) keeps the
  /// exact exponential schedule. Exposed as --net-jitter on the CLI.
  double net_jitter = 0.0;
  /// Row shards per party: every party's FeatureBlock is cut into this many
  /// contiguous row ranges (data::MakeRowShards), each held by a simulated
  /// storage node. The per-query protocol runs shard by shard — range
  /// distance kernels, per-shard encrypted aggregation, shard-local SmallestK
  /// — and the leader combines shard results with the hierarchical top-k
  /// merge (topk::HierarchicalTopkMerge), so per-query resident protocol
  /// state is O(shard + shards·k), not O(N). 1 (default) is the single-node
  /// protocol (a one-shard plan: no merge stage); sharded runs produce the
  /// same neighborhoods and d_T values as shards=1 (exact-HE paths
  /// bit-identical; traffic/clock naturally differ). Composes with
  /// `query_group` and with the repair cache; a cache attached to a sharded
  /// run keeps O(N·P) repair state per unit, like an unsharded one. Exposed
  /// as --shards on the CLI.
  size_t shards = 1;
  /// TreeCSS-style clustering pre-filter: 0 (default) = off. Otherwise each
  /// party clusters its local columns into this many k-means clusters once
  /// per Run, and per query nominates the rows of its clusters nearest the
  /// query (enough to cover >= 4k rows); the union of nominations is the
  /// only candidate set that pays distance + HE work. Approximate — a true
  /// neighbor every party's nomination missed is lost — which is the
  /// TreeCSS trade: prune before expensive per-sample work. Nominations
  /// reveal candidate row ids (BASE) / pseudo ids (top-k modes) to the
  /// server, like the Fagin candidate exchange. Pre-filtered runs bypass the
  /// repair cache: the nominated set is a union over the active parties, so
  /// it changes with membership and cached per-party values would no longer
  /// line up with it. Exposed as --prefilter=treecss:<clusters> on the CLI.
  size_t prefilter_clusters = 0;
};

/// \brief What the leader learns about one query sample.
struct QueryNeighborhood {
  uint64_t query_row = 0;
  std::vector<uint64_t> neighbors;   // original train-row ids, nearest first
  std::vector<double> per_party_dt;  // d_T^p = sum of partial distances to T
};

/// \brief Protocol statistics accumulated over a Run.
struct FedKnnStats {
  size_t queries = 0;
  /// Rows whose partial distances each participant encrypted, summed over
  /// queries (BASE: (N-1) per query; FAGIN: the candidate-set size).
  uint64_t candidates_encrypted = 0;
  uint64_t fagin_depth = 0;  // summed phase-1 depth across queries
  net::TrafficStats traffic;  // metered wire traffic of the run
  he::HeOpStats he_ops;       // HE operations actually executed
  /// Nodes observed crashed when a Run fails with PeerDead — the union over
  /// the main network's and every query task's fault stream. Empty on
  /// success. Participant ids are >= 1 (the leader is 0); negative ids are
  /// the servers (net::kAggregationServer / net::kKeyServer).
  std::vector<net::NodeId> dead_nodes;
  /// Subset of dead_nodes that left via a leave= rule (graceful churn, not a
  /// crash). Filled on success and failure alike.
  std::vector<net::NodeId> departed_nodes;
  /// Join-rule nodes whose threshold some fault stream crossed during the
  /// run — candidates for the selector to splice in. Success and failure.
  std::vector<net::NodeId> joined_nodes;
  /// Heal-rule nodes whose threshold some fault stream crossed — candidates
  /// for the selector to un-quarantine. Success and failure.
  std::vector<net::NodeId> healed_nodes;
  /// Party-unit contributions served from the selection cache instead of
  /// being recomputed/re-encrypted (0 on a cold run).
  uint64_t reused_contributions = 0;

  double AvgCandidatesPerQuery() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(candidates_encrypted) /
                              static_cast<double>(queries);
  }
};

/// \brief The vertical federated KNN oracle (paper §IV).
///
/// One instance simulates the whole deployment — leader (participant 0, holds
/// labels and the HE secret key via the backend), aggregation server, and P
/// participants — but every inter-role data flow passes through SimNetwork
/// (byte-metered) and the HeBackend (op-counted), and the simulated clock is
/// charged phase by phase with participant-parallel phases costed as the max
/// over participants.
///
/// One engine: every run is a row-shard plan (one shard when unsharded) and
/// every task unit is a group of queries (one query unless BASE slot
/// batching groups them). A unit walks the plan shard by shard; each shard
/// pass runs the per-party partial-distance step, the Fagin/TA narrowing
/// (top-k modes) and one encrypted aggregation round (encrypt, fan-in, Sum,
/// forward, decrypt and rank); with more than one shard the leader merges
/// the shard top-ks; one d_T exchange closes the unit. Each of those steps
/// owns its span, phase timer and clock charge, so sharded and unsharded
/// runs explain themselves the same way (sharded phases nest under
/// `knn.shard`).
///
/// Threading model: when a ThreadPool is supplied, Run() executes each
/// unit's complete protocol as an independent task. Every task operates on
/// task-local state — its own SimNetwork, its own SimClock, and its own
/// HeBackend session obtained via HeBackend::Fork() with a per-unit stream
/// seed pre-derived from FedKnnConfig::seed in query order. After all tasks
/// complete, the results, traffic meters, clock charges, and HE counters are
/// folded back into the shared deployment state *in query order*, so:
///
///   Determinism guarantee: a Run() with any thread count (including the
///   serial path, which executes the very same per-query tasks inline)
///   produces byte-identical neighborhoods, identical ciphertext streams,
///   identical stats, and an identical simulated clock. Parallelism changes
///   wall-clock time only.
///
/// Fault tolerance: when the main network has a fault plan attached
/// (SimNetwork::EnableFaults), every exchange goes through a per-task
/// net::ReliableChannel, and each query task's network receives its own
/// fault-stream seed pre-derived serially from the plan seed — so the fault
/// schedule, the retries it forces, and the extra simulated latency are all
/// reproducible at any thread count. Faults that retries absorb (drops,
/// duplicates, corruption, delay, stalls) leave the protocol *output*
/// identical to the fault-free run; a crashed node surfaces as a PeerDead
/// error with FedKnnStats::dead_nodes filled, and the caller may quarantine
/// the dead participants (FedKnnConfig::quarantined) and rerun over the
/// survivors.
///
/// Incremental repair: with a SelectionCache attached (set_cache), every
/// unit records each active party's per-shard contribution (partial-distance
/// vectors, sub-rankings, server-held ciphertexts) into the cache — on
/// success AND on failure (whatever completed before the fault is salvaged;
/// contents are thread-count-invariant because every unit runs to its own
/// end and is internally deterministic). A later Run() with a changed
/// membership but the same protocol shape reuses cached contributions:
/// surviving parties skip distance work, encryption, ciphertext uploads, and
/// already-streamed ranking rows; only newcomers compute from scratch, and
/// only the membership-dependent aggregation (sums, merges, candidate
/// exchange) is redone. Pre-filtered runs bypass the cache (see
/// FedKnnConfig::prefilter_clusters). On the exact (plain) HE path, a
/// repaired run's outputs are bit-identical to a clean run over the same
/// membership; on CKKS the cached ciphertexts carry their original
/// encryption randomness, so results match within the backend's noise
/// tolerance. Simulated-clock charges reflect the work actually done, so
/// repair is visibly cheaper.
///
/// Thread-safety: one FederatedKnnOracle must only be driven from one thread
/// at a time (Run/ClassifyAccuracy/ClassifyPredictions are not reentrant);
/// the oracle parallelizes internally. The referenced Dataset, partition,
/// and cost model are read-only and may be shared across oracles.
class FederatedKnnOracle {
 public:
  /// \param joint_train training split in the joint feature space (already
  ///        standardized). Kept by pointer; must outlive the oracle.
  /// \param partition which feature columns each participant holds.
  /// \param backend shared HE backend (keys live here); forked per query.
  /// \param network main byte-metered transport; absorbs per-query metering.
  /// \param cost_model calibration constants (seconds per op/byte).
  /// \param clock simulated deployment clock; charged in query order.
  /// \param pool optional worker pool for per-query parallelism; nullptr (or
  ///        a 1-thread pool) selects the serial path. Not owned.
  /// \param obs optional metrics/tracing sink (`knn.*` counters, per-phase
  ///        spans). Task-local query networks attach it too, so `net.*`
  ///        counters cover the whole protocol; the striped counters keep
  ///        totals thread-count-invariant.
  FederatedKnnOracle(const data::Dataset* joint_train,
                     const data::VerticalPartition* partition,
                     he::HeBackend* backend, net::SimNetwork* network,
                     const net::CostModel* cost_model, SimClock* clock,
                     ThreadPool* pool = nullptr,
                     obs::MetricsRegistry* obs = nullptr);

  size_t num_participants() const { return partition_->size(); }

  /// Attach (or detach, with nullptr) a participant-keyed contribution
  /// cache: subsequent Run()s record per-party state into it and reuse
  /// matching entries, enabling cheap repair after membership changes (see
  /// the class comment). Borrowed; must outlive the oracle's Run() calls.
  void set_cache(SelectionCache* cache) { cache_ = cache; }

  /// \brief Run the selection-phase protocol: sample |Q| query rows, find
  /// each query's k nearest neighbors over the full consortium, and return
  /// the per-participant aggregated distances d_T^p the similarity measure
  /// needs. Stats (if non-null) receive traffic/HE/candidate counts.
  ///
  /// Queries run in parallel on the pool passed at construction (see the
  /// class comment for the determinism guarantee). Complexity per query:
  /// BASE is O(P·N·F/P) distance work + N encrypted values; FAGIN/TA is
  /// O(P·N·F/P + N log N) plus encryption of only the candidate set.
  Result<std::vector<QueryNeighborhood>> Run(const FedKnnConfig& config,
                                             FedKnnStats* stats);

  /// \brief Federated KNN classification accuracy of `queries` (a dataset in
  /// the joint feature space, labels held by the leader) using only the given
  /// sub-consortium. Used as the utility function of the SHAPLEY baseline and
  /// for the KNN downstream task. Distances are computed in plaintext but the
  /// clock is charged as if the BASE protocol ran (encrypt-all), because that
  /// is what a faithful deployment would execute per coalition.
  ///
  /// \param queries evaluation rows (joint feature space, leader's labels).
  /// \param participants sub-consortium indices, each < num_participants().
  /// \param k neighbors per query row.
  /// \param charge_costs when true, advance the simulated clock by the cost
  ///        of the equivalent encrypted protocol (simulated seconds).
  /// Query rows are scored in parallel on the pool; results are independent
  /// of the thread count (plaintext arithmetic, disjoint output slots).
  Result<double> ClassifyAccuracy(const data::Dataset& queries,
                                  const std::vector<size_t>& participants,
                                  size_t k, bool charge_costs);

  /// Same protocol, returning the per-query predicted labels instead of the
  /// aggregate accuracy (used by the VF-MINE baseline's MI estimator).
  Result<std::vector<int>> ClassifyPredictions(
      const data::Dataset& queries, const std::vector<size_t>& participants,
      size_t k, bool charge_costs);

 private:
  /// Run-scoped shard plan, built once per Run() (serially, before any unit
  /// task spawns) and shared read-only by every task. An unsharded run is a
  /// one-shard plan.
  struct ShardRuntime {
    std::vector<data::RowShard> plan;  // contiguous row ranges covering N
    /// Top-k modes: each shard's rows in pseudo-id order, the item order of
    /// the shard's ranked lists (item i of a one-shard plan is pseudo id i).
    std::vector<std::vector<uint64_t>> ranked_rows;
    /// Per-party k-means models, indexed by participant id (only active
    /// parties filled). nullptr when the pre-filter is off. Owned by Run().
    const std::vector<ml::KMeansResult>* prefilter = nullptr;
    size_t prefilter_target = 0;  // rows each party's nomination must cover
    /// knn.shard.sim_ns{shard=S} / knn.shard.candidates{shard=S}, indexed by
    /// shard; empty for a one-shard plan or when metrics are off. The
    /// labeled-counter registry caps series cardinality, so very wide shard
    /// plans fold into its overflow label rather than exploding the registry.
    std::vector<obs::Counter*> sim_ns;
    std::vector<obs::Counter*> candidates;
  };

  /// Task-local deployment view for one unit: its own HE session, metered
  /// transport, reliable channel, and clock, so unit tasks never contend
  /// (merged afterwards). `active` lists the non-quarantined participants in
  /// ascending order (always starting with the leader, 0).
  struct QueryEnv {
    he::HeBackend* backend;
    net::SimNetwork* net;
    net::ReliableChannel* chan;
    SimClock* clock;
    const std::vector<size_t>* active;
    obs::Tracer* tracer;  // nullptr unless tracing is enabled
    const FedKnnConfig* config;
    const ShardRuntime* shards;
    const PseudoIdMap* pseudo;  // the top-k modes' consortium shuffle
    /// Prior contributions for this unit (read-only; nullptr = cold) and the
    /// task-local staging area fresh contributions are recorded into
    /// (nullptr = caching disabled). See SelectionCache.
    const CachedUnit* cached = nullptr;
    CachedUnit* fresh = nullptr;
  };

  /// One query's items within one shard: the rows that pay distance and HE
  /// work, in the order the protocol ranks them — ascending rows without the
  /// query (BASE), or pseudo-id order with the query's own row kept as a +inf
  /// item (top-k modes, so a one-shard plan is exactly the pseudo-id space).
  struct Slice {
    uint64_t query_row = 0;
    std::vector<uint64_t> rows;
  };

  /// Per-party output of the partial-distance step over one shard's slices
  /// (caller-owned, refilled per shard). Indexed by position in `active`.
  /// The top-k modes rank `values` lazily: `rankings` carries a cached
  /// party's sorted prefix to resume from, or is empty (nothing is sorted
  /// yet), and NarrowCandidates sorts each list only as deep as Fagin/TA
  /// reads it.
  struct PartyPartials {
    std::vector<std::vector<double>> values;  // slices concatenated
    std::vector<topk::RankedListSet::Prefix> rankings;  // top-k, see above
    std::vector<const PartyUnitState*> hits;  // reused cache entry or null
    std::vector<size_t> prior_depth;  // top-k: rows the server already has
  };

  /// One encrypted aggregation round: parties without a server-held
  /// ciphertext encrypt and upload, the server sums and forwards, the leader
  /// decrypts and ranks each segment (one per query) of the sum.
  struct Round {
    const std::vector<uint64_t>* announce = nullptr;  // ids broadcast first
    std::vector<size_t> segments;                    // lengths of segments
    std::vector<double> aggregate;                   // out: decrypted sums
    std::vector<std::vector<uint64_t>> top;          // out: SmallestK per seg
  };

  /// A shard top-k entry, carried to the leader's merge and the d_T exchange.
  struct Nominee {
    double value = 0.0;  // aggregate distance
    uint64_t id = 0;     // wire id: compressed index (BASE) or pseudo id
    uint64_t row = 0;    // original row
    std::vector<double> partials;  // each active party's partial distance
  };

  // The protocol of one unit: queries[0, g) over every shard of the plan.
  Result<std::vector<QueryNeighborhood>> RunUnit(const QueryEnv& env,
                                                 const size_t* queries,
                                                 size_t g,
                                                 FedKnnStats* stats) const;
  // Fills `slice` with the query's items in `shard` (its nominated rows when
  // the pre-filter is on); returns how many of them are not the query row.
  size_t BuildSlice(const QueryEnv& env, size_t shard, uint64_t query_row,
                    const std::vector<uint64_t>* nominated,
                    Slice* slice) const;
  // Per-party partial distances of one shard pass, reusing the unit's cached
  // (shard, party) contributions (and, in the top-k modes, their ranking
  // state) where they are valid.
  void ComputePartials(const QueryEnv& env, size_t shard,
                       const std::vector<Slice>& slices, PartyPartials* out,
                       FedKnnStats* stats) const;
  // Fagin/TA over one shard's sub-rankings, each sorted only as deep as it is
  // read, with mini-batch streaming to the server; stages fresh parties'
  // ranking state in the cache, shrinks `slice` and `partials` to the
  // candidate set (query item removed) and adds the phase-1 depth to `depth`.
  Status NarrowCandidates(const QueryEnv& env, size_t shard, Slice* slice,
                          PartyPartials* partials, uint64_t* depth) const;
  // `values[ai]` is what party ai encrypts; `held[ai]`, when present, is a
  // ciphertext the server kept from an earlier run (the party then stays
  // silent). Rounds that pass `held` are cacheable: their fresh uploads are
  // staged under (shard, party).
  Status AggregationRound(const QueryEnv& env, size_t shard,
                          const std::vector<std::vector<double>>& values,
                          const std::vector<const PartyUnitState*>& held,
                          Round* round) const;
  // Fills the neighborhoods of queries[0, g): the leader broadcasts each
  // query's neighbors, every active party returns d_T^p, the sum of its
  // partial distances to them.
  Status ExchangeDt(const QueryEnv& env, const size_t* queries,
                    const std::vector<std::vector<Nominee>>& winners,
                    std::vector<QueryNeighborhood>* hoods) const;
  // TreeCSS-style candidate nomination: each active party ranks its clusters
  // by centroid distance to its query slice and nominates the nearest
  // clusters' rows until ShardRuntime::prefilter_target rows are covered; the
  // union (query row excluded, ascending original row ids) travels through
  // env.chan like the Fagin candidate exchange. A pure function of
  // (models, query_row), so thread-count-invariant.
  Result<std::vector<uint64_t>> RunPrefilterExchange(const QueryEnv& env,
                                                     const ShardRuntime& rt,
                                                     uint64_t query_row) const;

  // Clock helpers (charge the given task-local clock).
  void ChargeParallelCompute(SimClock* clock,
                             const std::vector<double>& per_party_seconds) const;
  void ChargeFanIn(SimClock* clock, uint64_t bytes_per_party,
                   size_t parties) const;
  void ChargeFanOut(SimClock* clock, uint64_t bytes_per_link,
                    size_t links) const;

  const data::Dataset* joint_;
  const data::VerticalPartition* partition_;
  /// Per-participant packed feature blocks over `joint_` (cached row norms;
  /// built once at construction). The only per-oracle copy of feature data —
  /// in total one extra copy of the training matrix, split across parties.
  std::vector<ml::FeatureBlock> party_blocks_;
  he::HeBackend* backend_;
  net::SimNetwork* network_;
  const net::CostModel* cost_;
  SimClock* clock_;
  ThreadPool* pool_;
  obs::MetricsRegistry* obs_;
  SelectionCache* cache_ = nullptr;          // borrowed; see set_cache()
  obs::Counter* c_queries_ = nullptr;        // knn.queries
  obs::Histogram* h_candidates_ = nullptr;   // knn.candidates per query
  /// Labeled dimensions (all bounded: 3 modes, 7 phases, P parties, 2 cache
  /// outcomes), resolved once at construction so hot paths never touch the
  /// registry mutex.
  obs::Counter* c_queries_mode_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* c_cache_hit_ = nullptr;   // knn.cache.lookups{cache=hit}
  obs::Counter* c_cache_miss_ = nullptr;  // knn.cache.lookups{cache=miss}
  obs::Counter* c_phase_dist_ = nullptr;      // {phase=partial_distance}
  obs::Counter* c_phase_encrypt_ = nullptr;   // {phase=encrypt}
  obs::Counter* c_phase_agg_ = nullptr;       // {phase=aggregate}
  obs::Counter* c_phase_rank_ = nullptr;      // {phase=decrypt_rank}
  obs::Counter* c_phase_dt_ = nullptr;        // {phase=dt_exchange}
  obs::Counter* c_phase_merge_ = nullptr;     // {phase=topk_merge}
  obs::Counter* c_phase_stream_ = nullptr;    // {phase=stream_rankings}
  /// knn.party.encrypted_values{party=N}, indexed by participant.
  std::vector<obs::Counter*> c_party_enc_values_;
  obs::Counter* c_shard_merges_ = nullptr;  // knn.shard.merges
  obs::Counter* c_prefilter_candidates_ = nullptr;  // knn.prefilter.candidates
  obs::Counter* c_prefilter_pruned_ = nullptr;  // knn.prefilter.pruned_rows
  obs::Histogram* h_unit_sim_ns_ = nullptr;   // knn.query.sim_ns
  obs::Histogram* h_unit_wall_ns_ = nullptr;  // knn.query.wall_ns
};

}  // namespace vfps::vfl

#endif  // VFPS_VFL_FED_KNN_H_
