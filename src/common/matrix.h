// Dense row-major matrix of doubles — the feature-matrix currency of the
// whole library. Deliberately minimal: the library's algorithms only need
// row access, column access, and a handful of reductions.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <span>
#include <vector>

#include "common/aligned.h"

namespace nurd {

/// Read-only strided view of one matrix column. Unlike Matrix::col it does
/// not copy: indexing strides through the row-major storage. Valid only
/// while the owning Matrix is alive and un-resized.
class ColView {
 public:
  ColView() = default;
  ColView(const double* base, std::size_t size, std::size_t stride)
      : base_(base), size_(size), stride_(stride) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double operator[](std::size_t i) const { return base_[i * stride_]; }

  /// Random-access iterator so ColView works with std:: algorithms. The
  /// elements are lvalues in the owning Matrix, so reference is a genuine
  /// const double& (required of a conforming forward iterator).
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = double;
    using difference_type = std::ptrdiff_t;
    using pointer = const double*;
    using reference = const double&;

    iterator() = default;
    iterator(const double* p, std::size_t stride) : p_(p), stride_(stride) {}

    reference operator*() const { return *p_; }
    reference operator[](difference_type n) const {
      return p_[n * static_cast<difference_type>(stride_)];
    }
    iterator& operator++() { p_ += stride_; return *this; }
    iterator operator++(int) { auto t = *this; ++*this; return t; }
    iterator& operator--() { p_ -= stride_; return *this; }
    iterator operator--(int) { auto t = *this; --*this; return t; }
    iterator& operator+=(difference_type n) {
      p_ += n * static_cast<difference_type>(stride_);
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return (a.p_ - b.p_) / static_cast<difference_type>(a.stride_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.p_ == b.p_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.p_ <=> b.p_;
    }

   private:
    const double* p_ = nullptr;
    std::size_t stride_ = 1;
  };

  iterator begin() const { return {base_, stride_}; }
  iterator end() const { return {base_ + size_ * stride_, stride_}; }

 private:
  const double* base_ = nullptr;
  std::size_t size_ = 0;
  std::size_t stride_ = 1;
};

/// Dense row-major matrix of doubles. Rows are samples, columns features.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows×cols matrix initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested initializer lists (row-major).
  /// All rows must have the same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Builds a matrix from a flat row-major buffer. `flat.size()` must equal
  /// rows*cols. The values are copied into the matrix's aligned storage.
  static Matrix from_flat(std::size_t rows, std::size_t cols,
                          std::vector<double> flat);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Mutable view of row `r` (length cols()).
  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  /// Read-only view of row `r` (length cols()).
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copies column `c` into a new vector (length rows()).
  std::vector<double> col(std::size_t c) const;

  /// Zero-copy strided view of column `c` (length rows()). Invalidated by
  /// push_row and any other resizing operation.
  ColView col_view(std::size_t c) const;

  /// Appends a row. `values.size()` must equal cols() (or the matrix must be
  /// empty, in which case cols() is set from the first row).
  void push_row(std::span<const double> values);

  /// Reserves capacity for `n` rows of upcoming push_row calls. On a matrix
  /// whose width is not yet known the hint is remembered and applied when
  /// the first row fixes cols().
  void reserve_rows(std::size_t n);

  /// Empties the matrix to 0×`cols` while KEEPING the allocated capacity —
  /// the scratch-buffer idiom: gather loops that run once per checkpoint
  /// reset and refill the same matrix instead of allocating a fresh one.
  void reset(std::size_t cols);

  /// Returns a new matrix containing the rows listed in `indices`, in order.
  Matrix select_rows(std::span<const std::size_t> indices) const;

  /// Column means; empty matrix yields an all-zero vector of length cols().
  std::vector<double> col_means() const;

  /// Column standard deviations (population, i.e. divide by n); zero-variance
  /// columns yield 0.
  std::vector<double> col_stddevs() const;

  /// Flat row-major storage (read-only).
  std::span<const double> flat() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t row_reserve_hint_ = 0;
  // 32-byte aligned so SIMD kernel tables get aligned row/column loads.
  // reserve_rows/reset keep their capacity-preserving semantics unchanged —
  // the allocator only changes WHERE the buffer lands, never when it is
  // (re)allocated.
  AlignedVector<double> data_;
};

/// Squared Euclidean distance between two equal-length vectors. Dispatches
/// through the kernel layer (kernel/kernel.h), bit-exact under every table.
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Euclidean distance between two equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Dot product of two equal-length vectors.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm of a vector.
double norm2(std::span<const double> a);

}  // namespace nurd
