#ifndef VFPS_NET_CHANNEL_H_
#define VFPS_NET_CHANNEL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "net/network.h"

namespace vfps::net {

/// \brief Retransmission policy of ReliableChannel.
///
/// With `jitter_factor > 0` each backoff wait is stretched by a seeded
/// uniform draw in [0, jitter_factor] — the standard decorrelation trick so
/// that lockstep peers retrying the same congested link don't resend in
/// synchronized waves. The default of 0 keeps the backoff schedule exact
/// (wait, wait*b, wait*b^2, ...), which existing clock assertions rely on.
struct RetryPolicy {
  size_t max_attempts = 6;        // delivery attempts per message
  double timeout_seconds = 0.05;  // simulated wait before the first resend
  double backoff_factor = 2.0;    // exponential backoff multiplier
  double jitter_factor = 0.0;     // extra wait fraction, uniform [0, this]
  uint64_t jitter_seed = 0;       // seed of the jitter stream
};

/// \brief Lockstep reliable exchange over a (possibly fault-injected)
/// SimNetwork — the simulated counterpart of gRPC's retrying channel.
///
/// When the underlying network has no fault plan attached, Send/Recv are
/// exact pass-throughs of SimNetwork::Send/Recv: no framing bytes, no clock
/// charges, bit-identical to the raw transport. That makes the zero-fault
/// configuration free and is why protocol code can use the channel
/// unconditionally.
///
/// With faults enabled every payload is framed as
///
///   [seq u32][crc32 u32][len u32][payload bytes]
///
/// and Recv runs the receiver side of a stop-and-wait ARQ:
///   - a CRC mismatch (injected bit corruption) or an unparseable frame is
///     discarded and the in-flight payload retransmitted (Corrupt is never
///     silently consumed);
///   - stale duplicates (seq below the link cursor) are discarded free of
///     charge;
///   - an empty link charges an exponentially backed-off timeout to the
///     simulated clock and triggers a retransmission;
///   - a crashed peer (either endpoint) yields PeerDead;
///   - once max_attempts is exhausted the exchange fails with PeerDead (the
///     attempt count is in the message) and the likely-unreachable endpoint
///     is reported to the network via SimNetwork::SuspectDead, so the
///     selection layer can quarantine it like a crash — this is how long
///     partitions surface.
///
/// Retransmissions re-enter the fault plan (a resend can be dropped or
/// corrupted again), so the number of rounds a schedule needs is itself
/// deterministic for a fixed seed.
///
/// Each payload is checksummed once on each side:
///   - frame once: Send hashes the payload once, builds the frame in one
///     exactly-sized buffer, and keeps the payload with its CRC as the
///     link's pending message, so a retransmission rebuilds the same bytes
///     (same seq, same CRC) without hashing again;
///   - verify in place: Recv checks the CRC over the payload bytes inside
///     the received frame before it copies or allocates anything, then
///     slides the payload to the front of that buffer and returns it.
/// The CRC itself is the dispatched Crc32 kernel (docs/KERNELS.md), so the
/// integrity check costs about what a NIC checksum offload would.
///
/// Thread-safety: NOT thread-safe; one channel per task, wrapping that
/// task's SimNetwork and SimClock, like the objects it borrows.
class ReliableChannel {
 public:
  /// Both pointers are borrowed and must outlive the channel. If a metrics
  /// registry is attached to `net` (attach it *before* constructing the
  /// channel), retransmissions and discarded frames are published as
  /// `net.chan.retries` / `net.chan.discards`; with tracing enabled each
  /// retry/discard/exhaustion additionally records a zero-duration trace
  /// instant (net.chan.*) parented under the receiver's open span, so ARQ
  /// activity stays attached to the causal tree of the query it served.
  ReliableChannel(SimNetwork* net, SimClock* clock, RetryPolicy policy = {});

  /// Transmit `payload` on (from -> to). With faults enabled the frame is
  /// sequence-numbered, CRC-protected, and remembered (payload and CRC) for
  /// retransmission until the next Send on the same link.
  Status Send(NodeId from, NodeId to, std::vector<uint8_t> payload);

  /// Deliver the next in-order payload on (from -> to), retrying through
  /// injected faults. Errors: PeerDead (a link endpoint crashed, or the
  /// retry budget was exhausted and the suspect endpoint was reported dead),
  /// ProtocolError (nothing was ever sent — a protocol mismatch, matching
  /// raw SimNetwork semantics).
  Result<std::vector<uint8_t>> Recv(NodeId from, NodeId to);

  const RetryPolicy& policy() const { return policy_; }

 private:
  using LinkKey = std::pair<NodeId, NodeId>;
  struct Pending {
    uint32_t seq = 0;
    uint32_t crc = 0;  // Crc32(payload), computed once by Send
    std::vector<uint8_t> payload;
  };

  static std::vector<uint8_t> Frame(uint32_t seq, uint32_t crc,
                                    const std::vector<uint8_t>& payload);

  SimNetwork* net_;
  SimClock* clock_;
  RetryPolicy policy_;
  Rng jitter_rng_;
  obs::Tracer* tracer_ = nullptr;  // borrowed via the network's registry
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_discards_ = nullptr;
  obs::Counter* c_exhausted_ = nullptr;
  std::map<LinkKey, uint32_t> next_send_seq_;
  std::map<LinkKey, uint32_t> next_recv_seq_;
  std::map<LinkKey, Pending> pending_;
};

}  // namespace vfps::net

#endif  // VFPS_NET_CHANNEL_H_
