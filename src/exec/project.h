// ProjectNode: computes output columns from each input batch (column
// selection, arithmetic such as extendedprice * (1 - discount), etc.).
#ifndef PDTSTORE_EXEC_PROJECT_H_
#define PDTSTORE_EXEC_PROJECT_H_

#include <functional>
#include <memory>
#include <vector>

#include "columnstore/batch.h"

namespace pdtstore {

/// Produces one output column from an input batch.
using ColumnExpr = std::function<ColumnVector(const Batch&)>;

/// Projection / computation operator.
class ProjectNode : public BatchSource {
 public:
  ProjectNode(std::unique_ptr<BatchSource> input,
              std::vector<ColumnExpr> exprs)
      : input_(std::move(input)), exprs_(std::move(exprs)) {}

  StatusOr<bool> Next(Batch* out, size_t max_rows) override;

 private:
  std::unique_ptr<BatchSource> input_;
  std::vector<ColumnExpr> exprs_;
  Batch in_;  // reused across pulls
};

// --- expression helpers ---

/// Pass input column `idx` through.
ColumnExpr ColumnRef(size_t idx);
/// doubles: col(a) * (1 - col(b))  — the TPC-H revenue expression.
ColumnExpr Revenue(size_t price_idx, size_t discount_idx);
/// doubles: col(a) * (1 - col(b)) * (1 + col(c)).
ColumnExpr Charge(size_t price_idx, size_t discount_idx, size_t tax_idx);

}  // namespace pdtstore

#endif  // PDTSTORE_EXEC_PROJECT_H_
