#include "exec/project.h"

namespace pdtstore {

StatusOr<bool> ProjectNode::Next(Batch* out, size_t max_rows) {
  PDT_ASSIGN_OR_RETURN(bool more, input_->Next(&in_, max_rows));
  if (!more) return false;
  *out = Batch();
  out->set_start_rid(in_.start_rid());
  std::vector<ColumnId> ids(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    ids[i] = static_cast<ColumnId>(i);
    out->columns().push_back(exprs_[i](in_));
  }
  out->set_column_ids(std::move(ids));
  return true;
}

ColumnExpr ColumnRef(size_t idx) {
  return [idx](const Batch& b) { return b.column(idx); };
}

ColumnExpr Revenue(size_t price_idx, size_t discount_idx) {
  return [price_idx, discount_idx](const Batch& b) {
    ColumnVector out(TypeId::kDouble);
    const size_t n = b.column(price_idx).size();
    const double* price = b.column(price_idx).doubles_data();
    const double* disc = b.column(discount_idx).doubles_data();
    auto& vals = out.doubles();
    vals.resize(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = price[i] * (1.0 - disc[i]);
    }
    return out;
  };
}

ColumnExpr Charge(size_t price_idx, size_t discount_idx, size_t tax_idx) {
  return [price_idx, discount_idx, tax_idx](const Batch& b) {
    ColumnVector out(TypeId::kDouble);
    const size_t n = b.column(price_idx).size();
    const double* price = b.column(price_idx).doubles_data();
    const double* disc = b.column(discount_idx).doubles_data();
    const double* tax = b.column(tax_idx).doubles_data();
    auto& vals = out.doubles();
    vals.resize(n);
    for (size_t i = 0; i < n; ++i) {
      vals[i] = price[i] * (1.0 - disc[i]) * (1.0 + tax[i]);
    }
    return out;
  };
}

}  // namespace pdtstore
