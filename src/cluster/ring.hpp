// Consistent-hash ring partitioning polling responsibility across M
// front-ends. Each member contributes kRingVnodes points on a 64-bit ring;
// a backend is owned by the member whose point follows the backend's key
// clockwise. The classic guarantees hold and are pinned by property
// tests (tests/ring_test.cpp):
//
//  - partition: every backend is owned by exactly one live member;
//  - spread: with enough virtual nodes, shard sizes stay within a small
//    factor of N/M;
//  - minimal churn: adding/removing one member moves only the O(N/M)
//    keys adjacent to that member's points — everything else keeps its
//    owner, so a front-end join/leave re-homes one shard, not the world.
//
// Everything is a pure function of (salt, membership): no RNG,
// no clock, so two rings built by different front-ends from the same
// membership agree on every owner — the property the scale-out plane's
// "each backend polled by exactly one owner" claim rests on.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace rdmamon::cluster {

/// Virtual nodes per member. More vnodes = better spread, larger (still
/// tiny) ring; 64 keeps max shard within ~1.5x of N/M for the cluster
/// sizes we sweep.
constexpr int kRingVnodes = 64;

struct RingConfig {
  /// Hash-stream salt: lets disjoint rings in one process disagree.
  std::uint64_t salt = 0x7c5f3a1e9b4d2c81ull;
};

class HashRing {
 public:
  explicit HashRing(RingConfig cfg = {}) : cfg_(cfg) {}

  /// Adds a member; false (and no change) if already present.
  bool add(int member);
  /// Removes a member; false (and no change) if absent.
  bool remove(int member);
  bool contains(int member) const;

  int size() const { return static_cast<int>(members_.size()); }
  bool empty() const { return members_.empty(); }
  /// Ascending member ids.
  const std::vector<int>& members() const { return members_; }

  /// Owner of backend `backend_id`; -1 on an empty ring.
  int owner_of(int backend_id) const;
  /// Owner of an arbitrary pre-hashed key; -1 on an empty ring.
  int owner_of_key(std::uint64_t key) const;

  /// Bumped on every successful add/remove (a cheap membership version).
  std::uint64_t epoch() const { return epoch_; }

  /// splitmix64 finalizer: the ring's avalanche primitive, exposed so
  /// callers hashing their own keys share the distribution.
  static std::uint64_t mix64(std::uint64_t x);

  const RingConfig& config() const { return cfg_; }

 private:
  std::uint64_t point_hash(int member, int replica) const;

  RingConfig cfg_;
  /// Sorted (point hash, member): the ring itself.
  std::vector<std::pair<std::uint64_t, int>> points_;
  std::vector<int> members_;  ///< sorted
  std::uint64_t epoch_ = 0;
};

}  // namespace rdmamon::cluster
