#include "format/serialize.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/check.h"

namespace shflbw {
namespace {

constexpr std::uint32_t kMagic = 0x53464C42;  // "SFLB"
constexpr std::uint32_t kVersion = 1;

enum class Kind : std::uint32_t {
  kCsr = 1,
  kBsr = 2,
  kVectorWise = 3,
  kShflBw = 4,
  kBalanced24 = 5,
};

void WriteU32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t ReadU32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  SHFLBW_CHECK_MSG(is.good(), "truncated stream reading u32");
  return v;
}

template <typename T>
void WriteVec(std::ostream& os, const std::vector<T>& v) {
  WriteU32(os, static_cast<std::uint32_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Reads a count-prefixed array in chunks of at most 1 MiB, growing the
/// vector only as the bytes arrive. A corrupt count therefore fails the
/// truncation check after touching at most one chunk past the bytes
/// actually present, instead of first allocating and zero-filling up to
/// 16 GiB (2^32 elements).
template <typename T>
std::vector<T> ReadVec(std::istream& is) {
  constexpr std::size_t kChunk = (std::size_t{1} << 20) / sizeof(T);
  const std::uint32_t n = ReadU32(is);
  std::vector<T> v;
  while (v.size() < n) {
    const std::size_t done = v.size();
    const std::size_t take = std::min<std::size_t>(kChunk, n - done);
    v.resize(done + take);
    is.read(reinterpret_cast<char*>(v.data() + done),
            static_cast<std::streamsize>(take * sizeof(T)));
    SHFLBW_CHECK_MSG(is.good(), "truncated stream reading array of " << n);
  }
  return v;
}

void WriteHeader(std::ostream& os, Kind kind) {
  WriteU32(os, kMagic);
  WriteU32(os, kVersion);
  WriteU32(os, static_cast<std::uint32_t>(kind));
}

Kind ReadHeader(std::istream& is) {
  SHFLBW_CHECK_MSG(ReadU32(is) == kMagic, "bad magic (not a shflbw file)");
  const std::uint32_t version = ReadU32(is);
  SHFLBW_CHECK_MSG(version == kVersion, "unsupported version " << version);
  return static_cast<Kind>(ReadU32(is));
}

void ExpectKind(std::istream& is, Kind want, const char* name) {
  const Kind got = ReadHeader(is);
  SHFLBW_CHECK_MSG(got == want, "stream holds format kind "
                                    << static_cast<int>(got)
                                    << ", expected " << name);
}

}  // namespace

void Serialize(const CsrMatrix& m, std::ostream& os) {
  WriteHeader(os, Kind::kCsr);
  WriteU32(os, static_cast<std::uint32_t>(m.rows));
  WriteU32(os, static_cast<std::uint32_t>(m.cols));
  WriteVec(os, m.row_ptr);
  WriteVec(os, m.col_idx);
  WriteVec(os, m.values);
}

CsrMatrix DeserializeCsr(std::istream& is) {
  ExpectKind(is, Kind::kCsr, "csr");
  CsrMatrix m;
  m.rows = static_cast<int>(ReadU32(is));
  m.cols = static_cast<int>(ReadU32(is));
  m.row_ptr = ReadVec<int>(is);
  m.col_idx = ReadVec<int>(is);
  m.values = ReadVec<float>(is);
  m.Validate();
  return m;
}

void Serialize(const BsrMatrix& m, std::ostream& os) {
  WriteHeader(os, Kind::kBsr);
  WriteU32(os, static_cast<std::uint32_t>(m.rows));
  WriteU32(os, static_cast<std::uint32_t>(m.cols));
  WriteU32(os, static_cast<std::uint32_t>(m.block_size));
  WriteVec(os, m.block_row_ptr);
  WriteVec(os, m.block_col_idx);
  WriteVec(os, m.values);
}

BsrMatrix DeserializeBsr(std::istream& is) {
  ExpectKind(is, Kind::kBsr, "bsr");
  BsrMatrix m;
  m.rows = static_cast<int>(ReadU32(is));
  m.cols = static_cast<int>(ReadU32(is));
  m.block_size = static_cast<int>(ReadU32(is));
  m.block_row_ptr = ReadVec<int>(is);
  m.block_col_idx = ReadVec<int>(is);
  m.values = ReadVec<float>(is);
  m.Validate();
  return m;
}

void Serialize(const VectorWiseMatrix& m, std::ostream& os) {
  WriteHeader(os, Kind::kVectorWise);
  WriteU32(os, static_cast<std::uint32_t>(m.rows));
  WriteU32(os, static_cast<std::uint32_t>(m.cols));
  WriteU32(os, static_cast<std::uint32_t>(m.v));
  WriteVec(os, m.group_col_ptr);
  WriteVec(os, m.col_idx);
  WriteVec(os, m.values);
}

VectorWiseMatrix DeserializeVectorWise(std::istream& is) {
  ExpectKind(is, Kind::kVectorWise, "vw");
  VectorWiseMatrix m;
  m.rows = static_cast<int>(ReadU32(is));
  m.cols = static_cast<int>(ReadU32(is));
  m.v = static_cast<int>(ReadU32(is));
  m.group_col_ptr = ReadVec<int>(is);
  m.col_idx = ReadVec<int>(is);
  m.values = ReadVec<float>(is);
  m.Validate();
  return m;
}

void Serialize(const ShflBwMatrix& m, std::ostream& os) {
  WriteHeader(os, Kind::kShflBw);
  WriteU32(os, static_cast<std::uint32_t>(m.vw.rows));
  WriteU32(os, static_cast<std::uint32_t>(m.vw.cols));
  WriteU32(os, static_cast<std::uint32_t>(m.vw.v));
  WriteVec(os, m.vw.group_col_ptr);
  WriteVec(os, m.vw.col_idx);
  WriteVec(os, m.vw.values);
  WriteVec(os, m.storage_to_original);
}

ShflBwMatrix DeserializeShflBw(std::istream& is) {
  ExpectKind(is, Kind::kShflBw, "shflbw");
  ShflBwMatrix m;
  m.vw.rows = static_cast<int>(ReadU32(is));
  m.vw.cols = static_cast<int>(ReadU32(is));
  m.vw.v = static_cast<int>(ReadU32(is));
  m.vw.group_col_ptr = ReadVec<int>(is);
  m.vw.col_idx = ReadVec<int>(is);
  m.vw.values = ReadVec<float>(is);
  m.storage_to_original = ReadVec<int>(is);
  m.Validate();
  return m;
}

void Serialize(const Balanced24Matrix& m, std::ostream& os) {
  WriteHeader(os, Kind::kBalanced24);
  WriteU32(os, static_cast<std::uint32_t>(m.rows));
  WriteU32(os, static_cast<std::uint32_t>(m.cols));
  WriteVec(os, m.values);
  WriteVec(os, m.meta);
}

Balanced24Matrix DeserializeBalanced24(std::istream& is) {
  ExpectKind(is, Kind::kBalanced24, "b24");
  Balanced24Matrix m;
  m.rows = static_cast<int>(ReadU32(is));
  m.cols = static_cast<int>(ReadU32(is));
  m.values = ReadVec<float>(is);
  m.meta = ReadVec<std::uint8_t>(is);
  m.Validate();
  return m;
}

std::string PeekFormatKind(std::istream& is) {
  const std::streampos pos = is.tellg();
  const Kind kind = ReadHeader(is);
  is.seekg(pos);
  switch (kind) {
    case Kind::kCsr: return "csr";
    case Kind::kBsr: return "bsr";
    case Kind::kVectorWise: return "vw";
    case Kind::kShflBw: return "shflbw";
    case Kind::kBalanced24: return "b24";
  }
  throw Error("unknown format kind in stream");
}

void SaveShflBw(const ShflBwMatrix& m, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  SHFLBW_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  Serialize(m, os);
  SHFLBW_CHECK_MSG(os.good(), "write failed for " << path);
}

ShflBwMatrix LoadShflBw(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SHFLBW_CHECK_MSG(is.good(), "cannot open " << path);
  return DeserializeShflBw(is);
}

}  // namespace shflbw
