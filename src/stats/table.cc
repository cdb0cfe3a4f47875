#include "stats/table.hh"

#include <algorithm>

#include "common/log.hh"

namespace wc3d::stats {

Table::Table(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
    WC3D_ASSERT(!_headers.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    WC3D_ASSERT(cells.size() == _headers.size());
    _rows.push_back(std::move(cells));
}

const std::string &
Table::header(int col) const
{
    return _headers.at(static_cast<std::size_t>(col));
}

const std::string &
Table::cell(int row, int col) const
{
    return _rows.at(static_cast<std::size_t>(row))
                .at(static_cast<std::size_t>(col));
}

std::string
Table::toString() const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::size_t pad = widths[c] - row[c].size();
            if (c == 0) {
                line += row[c] + std::string(pad, ' ');
            } else {
                line += std::string(pad, ' ') + row[c];
            }
            if (c + 1 < row.size())
                line += "  ";
        }
        return line + "\n";
    };

    std::string out = emit(_headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out += std::string(total, '-') + "\n";
    for (const auto &row : _rows)
        out += emit(row);
    return out;
}

std::string
Table::toCsv() const
{
    auto field = [](const std::string &cell) {
        if (cell.find_first_of(",\"\r\n") == std::string::npos)
            return cell;
        std::string quoted = "\"";
        for (char ch : cell) {
            if (ch == '"')
                quoted += '"';
            quoted += ch;
        }
        return quoted + "\"";
    };
    auto emit = [&field](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                line += ",";
            line += field(row[c]);
        }
        return line + "\n";
    };
    std::string out = emit(_headers);
    for (const auto &row : _rows)
        out += emit(row);
    return out;
}

} // namespace wc3d::stats
