// ASCII chart rendering: the bench binaries reproduce the paper's *figures*
// as terminal line/bar charts in addition to numeric tables.
#pragma once

#include <string>
#include <vector>

namespace rdmamon::util {

/// One named series of (x, y) samples for an AsciiChart.
struct Series {
  std::string name;
  std::vector<double> ys;  ///< one value per x-label (NaN = missing)
};

/// Renders multiple series against shared categorical x labels as a
/// fixed-height ASCII chart with a y-axis scale and a legend, e.g.:
///
///   120 |            C
///       |        C
///    60 |    C  s
///       | Cs s
///     0 +-----------------
///         1   4   16  64
///
/// Each series gets a distinct marker character. When two series collide on
/// a cell the later-added one wins (documented, deterministic).
class AsciiChart {
 public:
  AsciiChart(std::string title, std::vector<std::string> x_labels);

  /// Adds a series; `ys.size()` must equal the number of x labels.
  void add_series(Series s);

  /// Forces the y range; by default it spans [min(0,data), max(data)].
  void set_y_range(double lo, double hi);

  /// Renders the chart (title, body, x labels, legend) to a string.
  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> x_labels_;
  std::vector<Series> series_;
  static constexpr int kHeight = 16;  ///< chart body rows
  bool fixed_range_ = false;
  double y_lo_ = 0.0, y_hi_ = 1.0;
};

}  // namespace rdmamon::util
