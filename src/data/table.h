#ifndef PAFEAT_DATA_TABLE_H_
#define PAFEAT_DATA_TABLE_H_

#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace pafeat {

// Structured-data relation (paper §II-A): n rows, m determinant attributes
// (features) and k dependent attributes (binary prediction targets). Each
// dependent attribute defines one Task (Definition 1).
class Table {
 public:
  Table() = default;
  Table(Matrix features, Matrix labels, std::vector<std::string> feature_names,
        std::vector<std::string> label_names);

  int num_rows() const { return features_.rows(); }
  int num_features() const { return features_.cols(); }
  int num_labels() const { return labels_.cols(); }

  const Matrix& features() const { return features_; }
  const Matrix& labels() const { return labels_; }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<std::string>& label_names() const { return label_names_; }

  // Binary label column as a 0/1 float vector.
  std::vector<float> LabelColumn(int label_index) const;

  // New table restricted to the given rows.
  Table SelectRows(const std::vector<int>& rows) const;

 private:
  Matrix features_;
  Matrix labels_;
  std::vector<std::string> feature_names_;
  std::vector<std::string> label_names_;
};

// A single prediction task over a table (Definition 1): the shared feature
// space plus one dependent attribute. TaskView does not own the table.
class TaskView {
 public:
  TaskView() = default;
  TaskView(const Table* table, int label_index)
      : table_(table), label_index_(label_index) {}

  const Table& table() const { return *table_; }
  int num_rows() const { return table_->num_rows(); }
  int num_features() const { return table_->num_features(); }

  const Matrix& features() const { return table_->features(); }
  std::vector<float> labels() const {
    return table_->LabelColumn(label_index_);
  }
  const std::string& name() const {
    return table_->label_names()[label_index_];
  }

 private:
  const Table* table_ = nullptr;
  int label_index_ = 0;
};

}  // namespace pafeat

#endif  // PAFEAT_DATA_TABLE_H_
