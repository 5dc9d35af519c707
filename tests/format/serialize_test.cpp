#include "format/serialize.h"

#include <sys/resource.h>

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prune/balanced24_prune.h"
#include "prune/block_wise.h"
#include "prune/shfl_bw_search.h"
#include "prune/unstructured.h"
#include "prune/vector_wise_prune.h"

namespace shflbw {
namespace {

/// Peak resident set size of this process so far, in KiB.
long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(Serialize, CsrRoundTrip) {
  Rng rng(601);
  const CsrMatrix m =
      CsrMatrix::FromDense(PruneUnstructured(rng.NormalMatrix(23, 31), 0.3));
  std::stringstream ss;
  Serialize(m, ss);
  const CsrMatrix back = DeserializeCsr(ss);
  EXPECT_EQ(back.ToDense(), m.ToDense());
  EXPECT_EQ(back.row_ptr, m.row_ptr);
}

TEST(Serialize, BsrRoundTrip) {
  Rng rng(607);
  const BsrMatrix m = BsrMatrix::FromDense(
      PruneBlockWise(rng.NormalMatrix(32, 32), 0.25, 8), 8);
  std::stringstream ss;
  Serialize(m, ss);
  EXPECT_EQ(DeserializeBsr(ss).ToDense(), m.ToDense());
}

TEST(Serialize, VectorWiseRoundTrip) {
  Rng rng(613);
  const VectorWiseMatrix m = VectorWiseMatrix::FromDense(
      PruneVectorWise(rng.NormalMatrix(32, 48), 0.25, 8), 8);
  std::stringstream ss;
  Serialize(m, ss);
  const VectorWiseMatrix back = DeserializeVectorWise(ss);
  EXPECT_EQ(back.ToDense(), m.ToDense());
  EXPECT_EQ(back.v, 8);
}

TEST(Serialize, ShflBwRoundTripIncludingPermutation) {
  Rng rng(617);
  const ShflBwMatrix m = PruneToShflBw(rng.NormalMatrix(32, 32), 0.25, 8);
  std::stringstream ss;
  Serialize(m, ss);
  const ShflBwMatrix back = DeserializeShflBw(ss);
  EXPECT_EQ(back.ToDense(), m.ToDense());
  EXPECT_EQ(back.storage_to_original, m.storage_to_original);
  EXPECT_EQ(back.vw.values, m.vw.values);  // bit-exact
}

TEST(Serialize, Balanced24RoundTrip) {
  Rng rng(619);
  const Balanced24Matrix m =
      Balanced24Matrix::FromDense(PruneBalanced24(rng.NormalMatrix(16, 32)));
  std::stringstream ss;
  Serialize(m, ss);
  EXPECT_EQ(DeserializeBalanced24(ss).ToDense(), m.ToDense());
}

TEST(Serialize, PeekKindDoesNotConsume) {
  Rng rng(621);
  const ShflBwMatrix m = PruneToShflBw(rng.NormalMatrix(16, 16), 0.5, 4);
  std::stringstream ss;
  Serialize(m, ss);
  EXPECT_EQ(PeekFormatKind(ss), "shflbw");
  // Stream still deserializes from the start.
  EXPECT_EQ(DeserializeShflBw(ss).ToDense(), m.ToDense());
}

TEST(Serialize, WrongKindRejected) {
  Rng rng(631);
  const CsrMatrix m =
      CsrMatrix::FromDense(PruneUnstructured(rng.NormalMatrix(8, 8), 0.5));
  std::stringstream ss;
  Serialize(m, ss);
  EXPECT_THROW(DeserializeShflBw(ss), Error);
}

TEST(Serialize, GarbageRejected) {
  std::stringstream ss("this is not a shflbw file at all............");
  EXPECT_THROW(DeserializeCsr(ss), Error);
}

TEST(Serialize, TruncatedStreamRejected) {
  Rng rng(641);
  const ShflBwMatrix m = PruneToShflBw(rng.NormalMatrix(16, 16), 0.5, 4);
  std::stringstream ss;
  Serialize(m, ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(DeserializeShflBw(truncated), Error);
}

// A corrupt array count must fail the truncation check, not first
// allocate what the count claims: this 28-byte CSR stream claims
// 0xFFFFFFF0 row_ptr entries (16 GiB) and holds one.
TEST(Serialize, CorruptCountRejectedWithoutAllocatingIt) {
  std::stringstream ss;
  for (const std::uint32_t word :
       {0x53464C42u, 1u, /*kind=csr*/ 1u, /*rows=*/4u, /*cols=*/4u,
        /*row_ptr count=*/0xFFFFFFF0u, /*row_ptr[0]=*/0u}) {
    ss.write(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  ASSERT_EQ(ss.str().size(), 28u);
  const long peak_kb_before = PeakRssKb();
  try {
    (void)DeserializeCsr(ss);
    ADD_FAILURE() << "DeserializeCsr accepted a truncated stream";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "truncated stream reading array of 4294967280"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(PeakRssKb() - peak_kb_before, 64 * 1024)
      << "peak RSS grew by more than 64 MB";
}

TEST(Serialize, FileHelpersRoundTrip) {
  Rng rng(643);
  const ShflBwMatrix m = PruneToShflBw(rng.NormalMatrix(32, 32), 0.25, 8);
  const std::string path = ::testing::TempDir() + "/shflbw_roundtrip.bin";
  SaveShflBw(m, path);
  EXPECT_EQ(LoadShflBw(path).ToDense(), m.ToDense());
  EXPECT_THROW(LoadShflBw("/nonexistent/dir/x.bin"), Error);
}

}  // namespace
}  // namespace shflbw
