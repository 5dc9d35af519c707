// Cross-format conversion helpers and mask utilities shared by the
// pruning algorithms and the kernels.
#pragma once

#include <vector>

#include "common/matrix.h"
#include "format/bsr.h"
#include "format/csr.h"
#include "format/shfl_bw.h"
#include "format/vector_wise.h"

namespace shflbw {

/// Binary mask (1 = kept) of the non-zero pattern of a dense matrix.
Matrix<float> ExtractMask(const Matrix<float>& dense);

/// Elementwise product: returns dense .* mask.
Matrix<float> ApplyMask(const Matrix<float>& dense,
                        const Matrix<float>& mask);

/// The online transformation of §3.1 / Fig. 3: converts a Shfl-BW matrix
/// to an explicit block-wise (BSR) matrix by materializing the row
/// permutation and stitching kept columns into V x V blocks (columns are
/// padded to a multiple of V within each group). This is what the GPU
/// kernel does implicitly per tile; the explicit version exists for
/// testing the equivalence the paper claims.
BsrMatrix ShflBwToBlockWise(const ShflBwMatrix& m);

/// Converts vector-wise to CSR (exact non-zeros; padding dropped).
CsrMatrix VectorWiseToCsr(const VectorWiseMatrix& vw);

}  // namespace shflbw
