#pragma once

#include <map>
#include <vector>

#include "broadcast/primitive.h"

/// Authenticated broadcast primitive (the paper's signature-based variant).
///
/// Ready processes sign and broadcast (round k). A process *accepts* round k
/// once it holds valid (round k) signatures from f+1 distinct signers — at
/// least one of which is then guaranteed to be correct (unforgeability). On
/// acceptance it relays an accepting bundle of f+1 signatures to everyone,
/// which makes every correct process accept within one message delay
/// (relay). Requires n >= 2f+1 so that correct processes alone can assemble
/// a quorum (correctness/liveness).
///
/// Acceptance spread: D = tdel.
namespace stclock {

class AuthBroadcast final : public BroadcastPrimitive {
 public:
  /// `fanin` = peers each node hears on the broadcast fabric (0 = the full
  /// fleet): the acceptance quorum is scaled_threshold(f + 1, n, fanin), so
  /// the default keeps the paper's exact f + 1.
  AuthBroadcast(std::uint32_t n, std::uint32_t f, std::uint32_t fanin = 0);

  void broadcast_ready(Context& ctx, Round k) override;
  bool handle_message(Context& ctx, NodeId from, const Message& m) override;
  void forget_below(Round floor) override;
  [[nodiscard]] Duration accept_spread(Duration tdel) const override { return tdel; }
  /// Scrambles the round floor and wipes the signature buffers; a floor
  /// landing above the live round makes the node deaf to all traffic.
  void corrupt_state(Rng& rng) override;
  /// Clamps a scrambled floor back down so live rounds flow again.
  void stabilize(Round expected_floor) override;

  /// Quorum size: f + 1 on the full fleet, the fan-in-proportional share of
  /// it on a sparse fabric (see scaled_threshold in primitive.h).
  [[nodiscard]] std::uint32_t quorum() const { return quorum_; }

 private:
  struct RoundState {
    /// Distinct signers so far, sorted ascending: a relay bundle checks
    /// each of its f + 1 signatures against this with a binary search.
    std::vector<NodeId> signers;
    SigBundle sigs;
    /// Cached round_signing_payload(k), serialized at most once per round
    /// instead of once per incoming signature batch.
    Bytes payload;
    bool sent_own = false;
    bool accepted = false;
  };

  /// The canonical signing payload for round `k`, cached in `state`.
  static const Bytes& payload_for(Round k, RoundState& state);

  void add_signatures(Context& ctx, Round k, const SigBundle& sigs);
  void maybe_accept(Context& ctx, Round k, RoundState& state);

  std::uint32_t n_;
  std::uint32_t f_;
  std::uint32_t quorum_;
  Round floor_ = 0;
  std::map<Round, RoundState> rounds_;
};

}  // namespace stclock
