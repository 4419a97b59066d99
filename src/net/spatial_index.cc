// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/spatial_index.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace madnet::net {
namespace {

// Cap on the dense grid's cell count, as a multiple of the point count.
// Points spread over a huge area relative to the cell size would otherwise
// allocate an enormous mostly-empty grid; doubling the effective cell size
// until the grid fits keeps memory O(points) for any input. Realistic
// scenarios (area a few tens of cells wide) never trigger the fallback, so
// the cell partition — and therefore query result order — matches the
// historical hash-grid exactly.
constexpr int64_t kMinGridCells = 1024;
constexpr int64_t kCellsPerPoint = 8;

int64_t MaxCells(size_t points) {
  return std::max<int64_t>(kMinGridCells,
                           kCellsPerPoint * static_cast<int64_t>(points));
}

// True iff a width x height grid over `points` points fits the cap.
bool FitsCap(int64_t width, int64_t height, size_t points) {
  const int64_t max_cells = MaxCells(points);
  return width <= max_cells && height <= max_cells &&
         width * height <= max_cells;
}

}  // namespace

SpatialIndex::SpatialIndex(double cell_size)
    : cell_size_(cell_size), grid_cell_size_(cell_size) {
  MADNET_DCHECK(cell_size > 0.0 && std::isfinite(cell_size));
}

int64_t SpatialIndex::CellCoord(double v) const {
  // floor() via truncating cast + negative adjustment: identical to
  // std::floor for every finite quotient that fits in int64 (coordinates
  // are metre-scale, so quotients are nowhere near the limit), without the
  // libm call this hot path would otherwise pay per point.
  const double q = v / grid_cell_size_;
  int64_t k = static_cast<int64_t>(q);
  k -= static_cast<int64_t>(q < static_cast<double>(k));
  return k;
}

void SpatialIndex::Rebuild(
    const std::vector<std::pair<NodeId, Vec2>>& positions) {
  compat_ids_scratch_.clear();
  compat_xs_scratch_.clear();
  compat_ys_scratch_.clear();
  compat_ids_scratch_.reserve(positions.size());
  compat_xs_scratch_.reserve(positions.size());
  compat_ys_scratch_.reserve(positions.size());
  for (const auto& [id, position] : positions) {
    compat_ids_scratch_.push_back(id);
    compat_xs_scratch_.push_back(position.x);
    compat_ys_scratch_.push_back(position.y);
  }
  Rebuild(compat_ids_scratch_, compat_xs_scratch_, compat_ys_scratch_);
}

// MADNET_HOT
void SpatialIndex::Rebuild(const std::vector<NodeId>& ids,
                           const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  MADNET_DCHECK_EQ(ids.size(), xs.size());
  MADNET_DCHECK_EQ(ids.size(), ys.size());
  const size_t n = ids.size();
  ids_.resize(n);
  xs_.resize(n);
  ys_.resize(n);
  if (n == 0) {
    width_ = height_ = 0;
    grid_cell_size_ = cell_size_;
    cell_start_.assign(1, 0);
    return;
  }

  // Pass 1: bounding box in cell coordinates, coarsening the effective
  // cell size until the dense grid fits the cap (pure function of the
  // input, so rebuilds stay deterministic).
  grid_cell_size_ = cell_size_;
  cx_scratch_.resize(n);
  cy_scratch_.resize(n);
  for (;;) {
    int64_t lo_cx = 0, hi_cx = 0, lo_cy = 0, hi_cy = 0;
    for (size_t i = 0; i < n; ++i) {
      // Non-finite coordinates would land in a garbage cell and silently
      // vanish from every range query.
      MADNET_DCHECK(std::isfinite(xs[i]) && std::isfinite(ys[i]));
      // Per-point coordinates are kept so the counting-sort pass below can
      // reuse them instead of redoing the floor-divisions; each coarsening
      // retry overwrites them, so after the loop they match grid_cell_size_.
      const int64_t cx = CellCoord(xs[i]);
      const int64_t cy = CellCoord(ys[i]);
      cx_scratch_[i] = cx;
      cy_scratch_[i] = cy;
      if (i == 0) {
        lo_cx = hi_cx = cx;
        lo_cy = hi_cy = cy;
      } else {
        lo_cx = std::min(lo_cx, cx);
        hi_cx = std::max(hi_cx, cx);
        lo_cy = std::min(lo_cy, cy);
        hi_cy = std::max(hi_cy, cy);
      }
    }
    const int64_t width = hi_cx - lo_cx + 1;
    const int64_t height = hi_cy - lo_cy + 1;
    if (FitsCap(width, height, n)) {
      min_cx_ = lo_cx;
      min_cy_ = lo_cy;
      width_ = width;
      height_ = height;
      break;
    }
    grid_cell_size_ *= 2.0;
  }

  // Pass 2: counting sort into the grid. The fill is stable, so points
  // sharing a cell keep their input order (a determinism requirement).
  const size_t cells = static_cast<size_t>(width_ * height_);
  cell_start_.assign(cells + 1, 0);
  cell_of_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t cell =
        static_cast<size_t>(cx_scratch_[i] - min_cx_) * height_ +
        static_cast<size_t>(cy_scratch_[i] - min_cy_);
    cell_of_scratch_[i] = static_cast<uint32_t>(cell);
    ++cell_start_[cell + 1];
  }
  for (size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  fill_scratch_.assign(cell_start_.begin(), cell_start_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t at = fill_scratch_[cell_of_scratch_[i]]++;
    ids_[at] = ids[i];
    xs_[at] = xs[i];
    ys_[at] = ys[i];
  }
}

bool SpatialIndex::RebuildKeepsCellSize(double grow_m, size_t points) const {
  if (grid_cell_size_ != cell_size_) return false;
  // A point within grow_m of the bounding box [lo, hi] lands in cells
  // CellCoord(lo - grow_m) .. CellCoord(hi + grow_m), at most
  // ceil(grow_m / edge) cells past each side; one more absorbs rounding.
  const double grow_cells = std::ceil(grow_m / cell_size_) + 1.0;
  // Already past the cap (the check also keeps the int64 math safe).
  if (!(grow_cells <= static_cast<double>(MaxCells(points)))) return false;
  const int64_t grow = static_cast<int64_t>(grow_cells);
  return FitsCap(width_ + 2 * grow, height_ + 2 * grow, points);
}

// MADNET_HOT
void SpatialIndex::QueryRange(const Vec2& center, double radius,
                              std::vector<NodeId>* out) const {
  MADNET_DCHECK(radius >= 0.0 && std::isfinite(radius));
  if (width_ == 0 || height_ == 0) return;  // Empty index.
  const double r2 = radius * radius;
  const int64_t lo_cx = std::max(CellCoord(center.x - radius), min_cx_);
  const int64_t hi_cx =
      std::min(CellCoord(center.x + radius), min_cx_ + width_ - 1);
  const int64_t lo_cy = std::max(CellCoord(center.y - radius), min_cy_);
  const int64_t hi_cy =
      std::min(CellCoord(center.y + radius), min_cy_ + height_ - 1);
  for (int64_t cx = lo_cx; cx <= hi_cx; ++cx) {
    const size_t column = static_cast<size_t>(cx - min_cx_) * height_;
    for (int64_t cy = lo_cy; cy <= hi_cy; ++cy) {
      const size_t cell = column + static_cast<size_t>(cy - min_cy_);
      for (uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1]; ++k) {
        const double dx = xs_[k] - center.x;
        const double dy = ys_[k] - center.y;
        if (dx * dx + dy * dy <= r2) {
          out->push_back(ids_[k]);
        }
      }
    }
  }
}

}  // namespace madnet::net
