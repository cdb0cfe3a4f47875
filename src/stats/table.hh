/**
 * @file
 * ASCII table formatter. Every bench prints its paper table through this
 * so the reproduction output is uniform and diffable.
 */

#ifndef WC3D_STATS_TABLE_HH
#define WC3D_STATS_TABLE_HH

#include <string>
#include <vector>

namespace wc3d::stats {

/** A simple left/right aligned text table with a header row. */
class Table
{
  public:
    /** Construct with column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Number of data rows. */
    int rows() const { return static_cast<int>(_rows.size()); }

    /** Number of columns. */
    int columns() const { return static_cast<int>(_headers.size()); }

    /** Column header. */
    const std::string &header(int col) const;

    /** Cell accessor (row, column). */
    const std::string &cell(int row, int col) const;

    /** Render with aligned columns; first column left, rest right. */
    std::string toString() const;

    /** Render as CSV; fields holding a comma, quote or newline are
     *  quoted as RFC 4180 says. */
    std::string toCsv() const;

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

} // namespace wc3d::stats

#endif // WC3D_STATS_TABLE_HH
