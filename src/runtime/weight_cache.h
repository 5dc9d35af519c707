// The packing phase of the runtime: converts a layer's master weight
// into the selected format exactly once and keeps the packed bytes
// keyed by (layer, format, density, v), so repeated Run calls — and
// the autotune pass, which packs several candidates per layer — never
// re-convert. This is the offline processing of Fig. 4 step (a)
// hoisted out of the execution path. Because the prune parameters are
// part of the key, quality-aware plans with PER-LAYER densities (each
// LayerPlan carries its own density/v) pack into the same cache as
// global-density plans with no collisions: layer 3 at 12.5% Shfl-BW
// and layer 3 at 25% Shfl-BW are distinct entries.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "common/matrix.h"
#include "common/thread_annotations.h"
#include "runtime/fault_injection.h"
#include "runtime/format.h"

namespace shflbw {
namespace runtime {

/// Pack-once cache keyed by (layer index, format, density, v).
///
/// Thread-safe: a single cache may be shared by multiple Engine
/// replicas (the BatchServer does exactly this) calling GetOrPack
/// concurrently. The prune parameters are part of the key — two engines
/// sharing the cache with different density or V settings get distinct
/// entries instead of silently serving each other's packed weights.
/// Returned references are stable for the lifetime of the cache (map
/// nodes never move); only Clear() invalidates them, so don't call
/// Clear() while replicas are running.
class PackedWeightCache {
 public:
  /// Returns the packed weight, converting `master` on first use.
  /// Concurrent callers with the same key pack at most once; the
  /// conversion itself runs under the cache lock, so replicas warming
  /// the same model serialize through the pack phase and every later
  /// lookup is a short locked map find. A PackWeight error propagates
  /// and leaves no entry behind.
  const PackedWeight& GetOrPack(int layer, Format format,
                                const Matrix<float>& master, double density,
                                int v) SHFLBW_EXCLUDES(mu_);

  /// Lazy-master variant: `master_fn` is invoked only on a cache miss,
  /// so a hit never materializes the dense master weight. This is what
  /// lets BatchServer replicas after a warmup serve entirely from the
  /// shared cache without each synthesizing (and retaining) its own
  /// copy of every layer's dense weights.
  const PackedWeight& GetOrPack(
      int layer, Format format,
      const std::function<const Matrix<float>&()>& master_fn, double density,
      int v) SHFLBW_EXCLUDES(mu_);

  [[nodiscard]] bool Contains(int layer, Format format, double density,
                              int v) const SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_.count(Key{layer, static_cast<int>(format), density, v}) > 0;
  }

  /// Number of conversions performed over the cache's lifetime. The
  /// engine snapshots this around Run to prove steady-state runs pack
  /// nothing.
  [[nodiscard]] std::size_t TotalPacks() const SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return packs_;
  }
  [[nodiscard]] std::size_t Size() const SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_.size();
  }

  /// Approximate resident bytes of every packed entry (payload vectors
  /// only, not map-node overhead). Feeds the statusz cache section so
  /// an operator can see what the pack-once policy is holding.
  [[nodiscard]] std::size_t ApproxBytes() const SHFLBW_EXCLUDES(mu_);
  void Clear() SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cache_.clear();
  }

  /// Installs a fault injector consulted on every cache miss, BEFORE
  /// the conversion runs or the cache mutates: an injected pack failure
  /// throws TransientFault out of GetOrPack and leaves no partial entry
  /// behind, so a retry sees a clean miss. Engines sharing this cache
  /// install the same injector (EngineOptions::fault_injector); nullptr
  /// uninstalls.
  void SetFaultInjector(std::shared_ptr<FaultInjector> injector)
      SHFLBW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    injector_ = std::move(injector);
  }

 private:
  using Key = std::tuple<int, int, double, int>;  // layer, format, density, v

  /// Rank kLockRankCache: may be acquired while no lock or only
  /// earlier-ranked locks are held; packing under it calls only
  /// lock-free pruners/converters (no ParallelFor — the pool mutex is
  /// rank 10, which would invert the order).
  mutable Mutex mu_{kLockRankCache};
  std::map<Key, PackedWeight> cache_ SHFLBW_GUARDED_BY(mu_);
  std::size_t packs_ SHFLBW_GUARDED_BY(mu_) = 0;
  std::shared_ptr<FaultInjector> injector_ SHFLBW_GUARDED_BY(mu_);
};

/// Prunes `master` to `format` at (density, v) by magnitude and
/// converts the result into the packed representation, both through
/// Ops(format). Deterministic (the Shfl-BW search seed is fixed).
/// Throws shflbw::Error on a density the format cannot hold (2:4 at
/// anything but 0.5) or a shape V does not divide.
PackedWeight PackWeight(Format format, const Matrix<float>& master,
                        double density, int v);

}  // namespace runtime
}  // namespace shflbw
