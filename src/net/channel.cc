#include "net/channel.h"

#include "common/buffer.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace vfps::net {

ReliableChannel::ReliableChannel(SimNetwork* net, SimClock* clock,
                                 RetryPolicy policy)
    : net_(net),
      clock_(clock),
      policy_(policy),
      // Jitter draws come from (policy seed, network fault seed): per-task
      // channels wrap task-local networks with pre-derived fault seeds, so
      // the jitter schedule is reproducible at any thread count.
      jitter_rng_(policy.jitter_seed ^
                  (net->fault_seed() * 0x9E3779B97F4A7C15ULL)) {
  if (obs::MetricsRegistry* registry = net_->metrics(); registry != nullptr) {
    tracer_ = registry->tracer();
    c_retries_ = registry->GetCounter("net.chan.retries");
    c_discards_ = registry->GetCounter("net.chan.discards");
    c_exhausted_ = registry->GetCounter("net.chan.exhausted");
  }
}

namespace {
// [seq u32][crc32 u32][len u32] ahead of the payload bytes.
constexpr size_t kFrameHeaderBytes = 3 * sizeof(uint32_t);
}  // namespace

std::vector<uint8_t> ReliableChannel::Frame(
    uint32_t seq, uint32_t crc, const std::vector<uint8_t>& payload) {
  // The layout BinaryWriter::WriteCrcFramed gives, with the CRC supplied.
  BinaryWriter w;
  w.Reserve(kFrameHeaderBytes + payload.size());
  w.WriteU32(seq);
  w.WriteU32(crc);
  w.WriteBytes(payload);
  return w.TakeBytes();
}

Status ReliableChannel::Send(NodeId from, NodeId to,
                             std::vector<uint8_t> payload) {
  if (!net_->faults_enabled()) {
    return net_->Send(from, to, std::move(payload));
  }
  const LinkKey key{from, to};
  const uint32_t seq = next_send_seq_[key]++;
  const uint32_t crc = Crc32(payload);
  VFPS_RETURN_NOT_OK(net_->Send(from, to, Frame(seq, crc, payload)));
  // Keep the payload and its CRC until the link's next Send: the lockstep
  // protocol has at most one exchange outstanding per link, and a resend
  // rebuilds the same bytes (same seq, same CRC) without hashing again.
  pending_[key] = Pending{seq, crc, std::move(payload)};
  return Status::OK();
}

Result<std::vector<uint8_t>> ReliableChannel::Recv(NodeId from, NodeId to) {
  if (!net_->faults_enabled()) return net_->Recv(from, to);

  const LinkKey key{from, to};
  const uint32_t want = next_recv_seq_[key];
  double wait = policy_.timeout_seconds;
  const auto discard_instant = [&](const char* reason) {
    if (c_discards_ != nullptr) c_discards_->Add(1);
    if (tracer_ != nullptr) {
      tracer_->Instant("net.chan.discard", {{"from", NodeName(from)},
                                            {"to", NodeName(to)},
                                            {"reason", reason}});
    }
  };
  for (size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    // Drain whatever is on the link; a good frame may sit behind stale
    // duplicates or corrupted copies.
    while (true) {
      auto recv = net_->Recv(from, to);
      if (!recv.ok()) break;  // link empty -> fall through to timeout
      BinaryReader reader(*recv);
      auto seq = reader.ReadU32();
      if (!seq.ok()) {  // mangled beyond parsing; discard
        discard_instant("unparseable");
        continue;
      }
      if (*seq < want) {  // stale duplicate of a delivered seq
        discard_instant("stale_duplicate");
        continue;
      }
      // The CRC is checked over the payload inside the received frame, so
      // a discarded frame costs no copy or allocation.
      auto payload = reader.ReadCrcFramedView();
      if (!payload.ok() || *seq > want) {  // corrupt; discard
        discard_instant("corrupt");
        continue;
      }
      next_recv_seq_[key] = want + 1;
      // Slide the verified payload to the front of the received buffer.
      const size_t len = payload->size();
      std::vector<uint8_t> bytes = recv.MoveValueUnsafe();
      bytes.erase(bytes.begin(), bytes.begin() + kFrameHeaderBytes);
      bytes.resize(len);
      return bytes;
    }
    if (net_->NodeDead(from) || net_->NodeDead(to)) {
      return Status::PeerDead(StrFormat(
          "ReliableChannel: %s is down, link %s -> %s unserviceable",
          NodeName(net_->NodeDead(from) ? from : to).c_str(),
          NodeName(from).c_str(), NodeName(to).c_str()));
    }
    auto pending = pending_.find(key);
    if (pending == pending_.end() || pending->second.seq != want) {
      // Nothing in flight to wait for: the protocol never sent seq `want`.
      return Status::ProtocolError(StrFormat(
          "ReliableChannel: no in-flight message with seq %u on link "
          "%s -> %s (protocol send/recv mismatch)",
          want, NodeName(from).c_str(), NodeName(to).c_str()));
    }
    // Simulated timeout, then ask the sender to retransmit. The resend goes
    // back through the fault plan, so it can be lost or corrupted again.
    double charged = wait;
    if (policy_.jitter_factor > 0.0) {
      charged *= 1.0 + policy_.jitter_factor * jitter_rng_.NextDouble();
    }
    clock_->Advance(CostCategory::kNetwork, charged);
    wait *= policy_.backoff_factor;
    if (c_retries_ != nullptr) c_retries_->Add(1);
    if (tracer_ != nullptr) {
      tracer_->Instant("net.chan.retry",
                       {{"from", NodeName(from)},
                        {"to", NodeName(to)},
                        {"seq", StrFormat("%u", want)},
                        {"attempt", StrFormat("%zu", attempt + 1)}});
    }
    const Pending& resend = pending->second;
    VFPS_RETURN_NOT_OK(
        net_->Send(from, to, Frame(want, resend.crc, resend.payload)));
  }
  // The retry budget is gone and no crash rule fired: something is silently
  // eating this link (a long partition, or pathological loss). Report the
  // likely-unreachable endpoint as a suspect so the selection layer can
  // quarantine it — never the leader or a server, whose loss is structural.
  const NodeId suspect = from >= 1 ? from : to;
  if (suspect >= 1) net_->SuspectDead(suspect);
  if (c_exhausted_ != nullptr) c_exhausted_->Add(1);
  if (tracer_ != nullptr) {
    tracer_->Instant(
        "net.chan.exhausted",
        {{"from", NodeName(from)},
         {"to", NodeName(to)},
         {"suspect", suspect >= 1 ? NodeName(suspect) : "none"}});
  }
  return Status::PeerDead(StrFormat(
      "ReliableChannel: gave up on link %s -> %s after %zu attempts "
      "(seq %u never arrived intact); suspecting %s unreachable",
      NodeName(from).c_str(), NodeName(to).c_str(), policy_.max_attempts,
      want, suspect >= 1 ? NodeName(suspect).c_str() : "nobody"));
}

}  // namespace vfps::net
