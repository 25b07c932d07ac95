#ifndef PAFEAT_LINALG_SPARSE_H_
#define PAFEAT_LINALG_SPARSE_H_

#include <vector>

#include "tensor/matrix.h"

namespace pafeat {

// Symmetric sparse matrix in coordinate form. Sufficient for the kNN-graph
// Laplacians used by the MDFS baseline; entries with i != j are stored once
// and applied symmetrically by MatVec.
class SymmetricSparse {
 public:
  explicit SymmetricSparse(int n) : n_(n) {}

  // Adds w to entry (i, j) (and, implicitly, (j, i) when i != j).
  void Add(int i, int j, float w);

  // y = A * x for a dense vector x of length n.
  std::vector<float> MatVec(const std::vector<float>& x) const;

  // Y = A * X for a dense n x d matrix X.
  Matrix MatMat(const Matrix& x) const;

 private:
  struct Entry {
    int i;
    int j;
    float w;
  };

  int n_;
  std::vector<Entry> entries_;
};

}  // namespace pafeat

#endif  // PAFEAT_LINALG_SPARSE_H_
