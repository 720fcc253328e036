#include "broadcast/auth_broadcast.h"

#include <algorithm>

#include "util/contracts.h"

namespace stclock {

AuthBroadcast::AuthBroadcast(std::uint32_t n, std::uint32_t f, std::uint32_t fanin)
    : n_(n), f_(f), quorum_(scaled_threshold(f + 1, n, fanin)) {
  ST_REQUIRE(n >= 2 * f + 1, "AuthBroadcast requires n >= 2f+1");
}

void AuthBroadcast::broadcast_ready(Context& ctx, Round k) {
  if (k < floor_) return;
  RoundState& state = rounds_[k];
  if (state.sent_own) return;
  state.sent_own = true;

  const crypto::Signature sig = ctx.signer().sign(payload_for(k, state));
  // Broadcast reaches self too, but acceptance bookkeeping is synchronous
  // here so a solo quorum (f == 0) fires immediately either way.
  ctx.broadcast(Message(RoundMsg{k, {sig}}));
}

bool AuthBroadcast::handle_message(Context& ctx, NodeId /*from*/, const Message& m) {
  const auto* rm = std::get_if<RoundMsg>(&m);
  if (rm == nullptr) return false;
  if (rm->round < floor_) return true;  // stale round: consumed, ignored
  add_signatures(ctx, rm->round, rm->sigs);
  return true;
}

const Bytes& AuthBroadcast::payload_for(Round k, RoundState& state) {
  // The payload is never empty ("st-round" + the round), so empty = unset.
  if (state.payload.empty()) state.payload = round_signing_payload(k);
  return state.payload;
}

void AuthBroadcast::add_signatures(Context& ctx, Round k, const SigBundle& sigs) {
  RoundState& state = rounds_[k];
  if (state.accepted) return;

  const Bytes& payload = payload_for(k, state);
  for (const crypto::Signature& sig : sigs) {
    const auto it = std::lower_bound(state.signers.begin(), state.signers.end(), sig.signer);
    if (it != state.signers.end() && *it == sig.signer) continue;
    // Invalid signatures — wrong round, forged MAC, unknown signer — are
    // silently dropped; this is where unforgeability bites.
    if (!ctx.registry().verify(sig, payload)) continue;
    state.signers.insert(it, sig.signer);
    state.sigs.push_back(sig);
  }
  maybe_accept(ctx, k, state);
}

void AuthBroadcast::maybe_accept(Context& ctx, Round k, RoundState& state) {
  if (state.accepted || state.signers.size() < quorum()) return;
  state.accepted = true;

  // Relay first (the paper's rule): forward an accepting bundle so every
  // correct process accepts within one further message delay.
  SigBundle bundle(state.sigs.begin(), state.sigs.begin() + quorum());
  ctx.broadcast(Message(RoundMsg{k, std::move(bundle)}));

  deliver_accept(ctx, k);
}

void AuthBroadcast::forget_below(Round floor) {
  if (floor <= floor_) return;
  floor_ = floor;
  rounds_.erase(rounds_.begin(), rounds_.lower_bound(floor));
}

void AuthBroadcast::corrupt_state(Rng& rng) {
  // The floor and the per-round signature buffers are memory. The buffers
  // are wiped rather than bit-flipped: accumulated signatures are gone, and
  // sent_own/accepted flags with them (so a recovered node may harmlessly
  // re-sign a round it already signed).
  floor_ = rng.uniform_int(0, 1u << 20);
  rounds_.clear();
}

void AuthBroadcast::stabilize(Round expected_floor) {
  // Only ever lower the floor: raising it is forget_below's job and is
  // driven by actual acceptances. On an uncorrupted primitive the floor is
  // already <= the expected round, so this is a no-op.
  if (floor_ > expected_floor) floor_ = expected_floor;
}

}  // namespace stclock
