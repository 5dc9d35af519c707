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

/// Deserializes `ss` and expects a shflbw::Error naming `want`.
template <typename Deserialize>
void ExpectRejected(std::stringstream& ss, Deserialize deserialize,
                    const std::string& want) {
  try {
    (void)deserialize(ss);
    ADD_FAILURE() << "a corrupt stream was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

/// Two groups of V=2 rows over 4 columns keeping 2 + 3 = 5 vectors:
/// group_col_ptr {0, 2, 5}.
VectorWiseMatrix FiveKeptVectors() {
  const Matrix<float> d(4, 4, {1, 0, 2, 0,  //
                               3, 0, 4, 0,  //
                               0, 5, 6, 7,  //
                               0, 8, 9, 1});
  VectorWiseMatrix m = VectorWiseMatrix::FromDense(d, 2);
  EXPECT_EQ(m.group_col_ptr, (std::vector<int>{0, 2, 5}));
  return m;
}

// An interior slice pointer past the index count must be rejected by
// name before Validate reads col_idx / block_col_idx through it.
TEST(Serialize, VectorWiseGroupPointerPastKeptVectorsRejected) {
  VectorWiseMatrix m = FiveKeptVectors();
  m.group_col_ptr = {0, 1000, 5};
  std::stringstream ss;
  Serialize(m, ss);
  ExpectRejected(ss, DeserializeVectorWise,
                 "group_col_ptr 1000 exceeds kept vectors 5 at group 0");
}

TEST(Serialize, ShflBwGroupPointerPastKeptVectorsRejected) {
  ShflBwMatrix m;
  m.vw = FiveKeptVectors();
  m.vw.group_col_ptr = {0, 1000, 5};
  m.storage_to_original = {2, 0, 3, 1};
  std::stringstream ss;
  Serialize(m, ss);
  ExpectRejected(ss, DeserializeShflBw,
                 "group_col_ptr 1000 exceeds kept vectors 5 at group 0");
}

TEST(Serialize, BsrBlockRowPointerPastNnzBlocksRejected) {
  // 2x2 blocks over a 4x4 matrix keeping 1 + 2 = 3 blocks.
  const Matrix<float> d(4, 4, {1, 1, 0, 0,  //
                               1, 1, 0, 0,  //
                               2, 2, 3, 3,  //
                               2, 2, 3, 3});
  BsrMatrix m = BsrMatrix::FromDense(d, 2);
  ASSERT_EQ(m.block_row_ptr, (std::vector<int>{0, 1, 3}));
  m.block_row_ptr = {0, 1000, 3};
  std::stringstream ss;
  Serialize(m, ss);
  ExpectRejected(ss, DeserializeBsr,
                 "block_row_ptr 1000 exceeds nnz blocks 3 at block-row 0");
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
