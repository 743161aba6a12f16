// Deterministic fault injection for robustness tests.
//
// A FaultInjector is a process-global registry of *sites* — string keys
// compiled into production code paths at the exact points where hardware or
// an adversary could bite: in-memory package images (bit flips,
// truncation), the engine's clone/sign pipeline, artificial latency in
// queries and updates.
// Tests arm sites (probabilistically, on scripted hit indices, or always)
// and production code asks `Fire(site)` at each pass; a disarmed injector
// costs one relaxed atomic load per site, so the hooks stay compiled in for
// every build — the same binaries that serve traffic are the ones proven to
// degrade cleanly.
//
// Determinism: probabilistic sites draw from a per-site xoshiro stream
// seeded at arm time, and hit counting is under one mutex, so a
// single-threaded test replays identically run after run. (Multi-threaded
// tests interleave hits nondeterministically by nature; they assert
// invariants, not exact schedules.)
//
// Site keys currently wired in:
//   storage.serialize.bitflip    flip one bit of an in-memory .ipk image
//   storage.serialize.truncate   drop the tail of an in-memory .ipk image
//   storage.file.short_write     tear an atomic file write partway through
//   storage.file.fsync_fail      fail the pre-rename data fsync
//   storage.file.rename_fail     drop the atomic-rename publish step
//   storage.scrub.bitflip        corrupt a digest the epoch scrubber computes
//   engine.update.clone          fail the snapshot clone outright
//   engine.update.sign           corrupt the freshly signed root signature
//   engine.update.latency        sleep inside the update critical section
//   engine.query.latency         sleep inside Serve() (overload tests)
//   net.conn.reset               server drops a connection at a frame boundary
//
// Arming validates the site name against this wired set (plus any sites a
// test explicitly RegisterSite()s): a typo in a chaos config would
// otherwise arm a site nothing ever fires, silently disabling the fault it
// was meant to inject. Unknown names abort with the known list.

#ifndef IMAGEPROOF_COMMON_FAULT_H_
#define IMAGEPROOF_COMMON_FAULT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"

namespace imageproof::fault {

// Every site compiled into production code paths. Keep in lockstep with the
// call sites; ArmX() on a name outside this list (and outside the
// test-registered extras) aborts the process.
inline constexpr const char* kWiredSites[] = {
    "storage.serialize.bitflip", "storage.serialize.truncate",
    "storage.file.short_write",  "storage.file.fsync_fail",
    "storage.file.rename_fail",  "storage.scrub.bitflip",
    "engine.update.clone",       "engine.update.sign",
    "engine.update.latency",     "engine.query.latency",
    "net.conn.reset",
};

class FaultInjector {
 public:
  static FaultInjector& Global() {
    static FaultInjector injector;
    return injector;
  }

  // Clears every armed site and every hit counter. Tests call this in
  // SetUp/TearDown so sites never leak across test cases.
  void DisarmAll() {
    std::lock_guard<std::mutex> lock(mu_);
    sites_.clear();
    enabled_.store(false, std::memory_order_relaxed);
  }

  // Admits a site name outside kWiredSites for the lifetime of the process
  // (survives DisarmAll — registration is vocabulary, not armed state).
  // Unit tests use this for synthetic sites; production code never should.
  void RegisterSite(const std::string& site) {
    std::lock_guard<std::mutex> lock(mu_);
    extra_sites_.insert(site);
  }

  // Fires with probability `p` on each hit, drawn from a deterministic
  // per-site stream seeded with `seed`.
  void ArmProbability(const std::string& site, double p, uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu_);
    MustBeKnown(site);
    SiteState& s = sites_[site];
    s.mode = Mode::kProbability;
    s.probability = p;
    s.rng_state = seed;
    enabled_.store(true, std::memory_order_relaxed);
  }

  // Fires exactly on the given 0-based hit indices (scripted faults:
  // "fail the second clone, then recover").
  void ArmHits(const std::string& site, std::vector<uint64_t> hit_indices) {
    std::lock_guard<std::mutex> lock(mu_);
    MustBeKnown(site);
    SiteState& s = sites_[site];
    s.mode = Mode::kScripted;
    s.scripted_hits = std::move(hit_indices);
    enabled_.store(true, std::memory_order_relaxed);
  }

  // Fires on every hit.
  void ArmAlways(const std::string& site) {
    std::lock_guard<std::mutex> lock(mu_);
    MustBeKnown(site);
    sites_[site].mode = Mode::kAlways;
    enabled_.store(true, std::memory_order_relaxed);
  }

  // Arms a latency site: InjectLatency(site) sleeps this long per firing.
  void ArmLatencyMs(const std::string& site, uint32_t ms) {
    std::lock_guard<std::mutex> lock(mu_);
    MustBeKnown(site);
    SiteState& s = sites_[site];
    s.mode = Mode::kAlways;
    s.latency_ms = ms;
    enabled_.store(true, std::memory_order_relaxed);
  }

  // Counts a hit at `site` and reports whether the armed fault fires.
  // Disarmed sites (and a fully disarmed injector) never fire.
  bool Fire(const char* site) {
    if (!enabled()) return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    SiteState& s = it->second;
    uint64_t hit = s.hits++;
    bool fired = false;
    switch (s.mode) {
      case Mode::kOff:
        break;
      case Mode::kAlways:
        fired = true;
        break;
      case Mode::kProbability:
        fired = NextDouble(s) < s.probability;
        break;
      case Mode::kScripted:
        for (uint64_t h : s.scripted_hits) fired = fired || (h == hit);
        break;
    }
    if (fired) ++s.fired;
    return fired;
  }

  // Deterministic per-site draw for corruption offsets (which bit to flip,
  // how much tail to drop). Counts as neither a hit nor a firing.
  uint64_t Draw(const char* site) {
    std::lock_guard<std::mutex> lock(mu_);
    return NextU64(sites_[site]);
  }

  uint32_t LatencyMs(const char* site) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.latency_ms;
  }

  uint64_t Hits(const std::string& site) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.hits;
  }

  uint64_t Fired(const std::string& site) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.fired;
  }

  // Fast-path gate: a single relaxed load when nothing is armed, so the
  // hooks are effectively free in production.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  enum class Mode : uint8_t { kOff, kAlways, kProbability, kScripted };

  // Called under mu_ by every Arm variant. Aborting (rather than returning
  // a Status) is deliberate: arming happens in test/chaos setup, and a
  // config that arms a nonexistent site is a broken experiment — running on
  // with the fault silently disabled is the failure mode this guards.
  void MustBeKnown(const std::string& site) const {
    for (const char* wired : kWiredSites) {
      if (site == wired) return;
    }
    if (extra_sites_.count(site) != 0) return;
    std::fprintf(stderr, "fault: unknown site '%s'; wired sites are:\n",
                 site.c_str());
    for (const char* wired : kWiredSites) {
      std::fprintf(stderr, "  %s\n", wired);
    }
    std::fprintf(stderr,
                 "(tests may admit extra sites with RegisterSite())\n");
    std::abort();
  }

  struct SiteState {
    Mode mode = Mode::kOff;
    double probability = 0;
    std::vector<uint64_t> scripted_hits;
    uint32_t latency_ms = 0;
    uint64_t rng_state = 0x9E3779B97F4A7C15ULL;
    uint64_t hits = 0;
    uint64_t fired = 0;
  };

  // splitmix64 step over the per-site state: deterministic, no global RNG
  // coupling between sites.
  static uint64_t NextU64(SiteState& s) {
    s.rng_state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = s.rng_state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  static double NextDouble(SiteState& s) {
    return static_cast<double>(NextU64(s) >> 11) * 0x1.0p-53;
  }

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  std::set<std::string> extra_sites_;
  std::atomic<bool> enabled_{false};
};

// --- call-site helpers -----------------------------------------------------

// True when the armed fault at `site` fires this hit.
inline bool InjectFault(const char* site) {
  return FaultInjector::Global().Fire(site);
}

// Sleeps for the site's armed latency when it fires; no-op otherwise.
inline void InjectLatency(const char* site) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.enabled() || !fi.Fire(site)) return;
  uint32_t ms = fi.LatencyMs(site);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Applies the armed serializer faults to an outgoing byte buffer: a single
// deterministic bit flip and/or a tail truncation. SerializeSpPackage (the
// in-memory form of the .ipk codec, storage/serializer.h) calls this on
// every image it emits, so the engine's clone path (and any test that
// round-trips a package) sees realistic storage corruption. Files written
// by PackageStore::Write never pass through here.
inline void InjectByteFaults(Bytes* data) {
  FaultInjector& fi = FaultInjector::Global();
  if (!fi.enabled() || data->empty()) return;
  if (fi.Fire("storage.serialize.bitflip")) {
    uint64_t r = fi.Draw("storage.serialize.bitflip");
    (*data)[(r >> 3) % data->size()] ^= static_cast<uint8_t>(1u << (r & 7));
  }
  if (fi.Fire("storage.serialize.truncate")) {
    uint64_t drop = 1 + fi.Draw("storage.serialize.truncate") %
                            std::min<size_t>(64, data->size());
    data->resize(data->size() - static_cast<size_t>(drop));
  }
}

}  // namespace imageproof::fault

#endif  // IMAGEPROOF_COMMON_FAULT_H_
