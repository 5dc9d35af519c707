#include "runtime/weight_cache.h"

#include <chrono>
#include <vector>

#include "format/convert.h"
#include "prune/importance.h"

namespace shflbw {
namespace runtime {

PackedWeight PackWeight(Format format, const Matrix<float>& master,
                        double density, int v) {
  const auto t0 = std::chrono::steady_clock::now();
  const FormatOps& ops = Ops(format);
  const FormatMask m = ops.mask(MagnitudeScores(master), density, v);
  PackedWeight p;
  p.format = format;
  ops.pack(ApplyMask(master, m.mask), v, m.storage_to_original, p);
  const auto t1 = std::chrono::steady_clock::now();
  p.pack_seconds = std::chrono::duration<double>(t1 - t0).count();
  return p;
}

const PackedWeight& PackedWeightCache::GetOrPack(int layer, Format format,
                                                 const Matrix<float>& master,
                                                 double density, int v) {
  return GetOrPack(
      layer, format, [&]() -> const Matrix<float>& { return master; },
      density, v);
}

const PackedWeight& PackedWeightCache::GetOrPack(
    int layer, Format format,
    const std::function<const Matrix<float>&()>& master_fn, double density,
    int v) {
  const Key key{layer, static_cast<int>(format), density, v};
  MutexLock lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    // Fault hook fires before any mutation: a TransientFault here
    // leaves the cache byte-identical to before the call (no entry, no
    // pack count), so a scheduler retry re-runs a clean miss.
    if (injector_) injector_->OnPack();
    it = cache_.emplace(key, PackWeight(format, master_fn(), density, v))
             .first;
    ++packs_;
  }
  return it->second;
}

namespace {

template <typename T>
std::size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

std::size_t PackedBytes(const PackedWeight& p) {
  std::size_t n = sizeof(PackedWeight);
  n += p.dense.size() * sizeof(float);
  n += VecBytes(p.csr.row_ptr) + VecBytes(p.csr.col_idx) +
       VecBytes(p.csr.values);
  n += VecBytes(p.bsr.block_row_ptr) + VecBytes(p.bsr.block_col_idx) +
       VecBytes(p.bsr.values);
  n += VecBytes(p.balanced24.values) + VecBytes(p.balanced24.meta);
  n += VecBytes(p.vw.group_col_ptr) + VecBytes(p.vw.col_idx) +
       VecBytes(p.vw.values);
  n += VecBytes(p.shflbw.vw.group_col_ptr) + VecBytes(p.shflbw.vw.col_idx) +
       VecBytes(p.shflbw.vw.values) + VecBytes(p.shflbw.storage_to_original);
  return n;
}

}  // namespace

std::size_t PackedWeightCache::ApproxBytes() const {
  MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, packed] : cache_) total += PackedBytes(packed);
  return total;
}

}  // namespace runtime
}  // namespace shflbw
