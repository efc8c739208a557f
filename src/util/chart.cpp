#include "util/chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/format.hpp"

namespace rdmamon::util {

namespace {
// Marker characters assigned to series in order of addition.
constexpr char kMarkers[] = {'*', 'o', '+', 'x', '#', '@', '%', '&'};
}  // namespace

AsciiChart::AsciiChart(std::string title, std::vector<std::string> x_labels)
    : title_(std::move(title)), x_labels_(std::move(x_labels)) {}

void AsciiChart::add_series(Series s) {
  if (s.ys.size() != x_labels_.size()) {
    throw std::invalid_argument("AsciiChart: series size != x label count");
  }
  series_.push_back(std::move(s));
}

void AsciiChart::set_y_range(double lo, double hi) {
  fixed_range_ = true;
  y_lo_ = lo;
  y_hi_ = hi;
}

std::string AsciiChart::render() const {
  const std::size_t ncols = x_labels_.size();
  // Column width: widest label + 1 padding, at least 3.
  std::size_t colw = 3;
  for (const auto& l : x_labels_) colw = std::max(colw, l.size() + 1);

  double lo = 0.0, hi = 1.0;
  if (fixed_range_) {
    lo = y_lo_;
    hi = y_hi_;
  } else {
    lo = 0.0;
    hi = 0.0;
    bool any = false;
    for (const auto& s : series_) {
      for (double y : s.ys) {
        if (std::isnan(y)) continue;
        lo = any ? std::min(lo, y) : std::min(0.0, y);
        hi = any ? std::max(hi, y) : y;
        any = true;
      }
    }
    if (!any) hi = 1.0;
    if (hi == lo) hi = lo + 1.0;
  }

  const int h = kHeight;
  // grid[row][col] marker; row 0 = top.
  std::vector<std::string> grid(static_cast<std::size_t>(h),
                                std::string(ncols * colw, ' '));
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const char mark = kMarkers[si % sizeof(kMarkers)];
    for (std::size_t c = 0; c < ncols; ++c) {
      const double y = series_[si].ys[c];
      if (std::isnan(y)) continue;
      double frac = (y - lo) / (hi - lo);
      frac = std::clamp(frac, 0.0, 1.0);
      const int row = static_cast<int>(
          std::lround((1.0 - frac) * static_cast<double>(h - 1)));
      grid[static_cast<std::size_t>(row)][c * colw + colw / 2] = mark;
    }
  }

  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';
  const std::size_t axisw = 10;
  for (int r = 0; r < h; ++r) {
    std::string label;
    // Put numeric labels on top, middle and bottom rows.
    if (r == 0) {
      label = format_double(hi, 2);
    } else if (r == h - 1) {
      label = format_double(lo, 2);
    } else if (r == h / 2) {
      label = format_double(lo + (hi - lo) * 0.5, 2);
    }
    os << pad_left(label, axisw) << " |" << grid[static_cast<std::size_t>(r)]
       << '\n';
  }
  os << pad_left("", axisw) << " +" << std::string(ncols * colw, '-') << '\n';
  os << pad_left("", axisw) << "  ";
  for (const auto& l : x_labels_) os << pad_right(l, colw);
  os << '\n';
  os << pad_left("", axisw) << "  legend:";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    os << ' ' << kMarkers[si % sizeof(kMarkers)] << '=' << series_[si].name;
  }
  os << '\n';
  return os.str();
}

}  // namespace rdmamon::util
