#include "stats/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>

namespace udp {

Table::Table(std::vector<std::string> header) : head(std::move(header)) {}

void
Table::beginRow()
{
    rows.emplace_back();
}

void
Table::cell(const std::string& s)
{
    rows.back().push_back(s);
}

void
Table::cell(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    rows.back().push_back(os.str());
}

void
Table::cell(std::uint64_t v)
{
    rows.back().push_back(std::to_string(v));
}

void
Table::cell(int v)
{
    rows.back().push_back(std::to_string(v));
}

std::string
Table::toAscii() const
{
    std::vector<std::size_t> width(head.size(), 0);
    for (std::size_t c = 0; c < head.size(); ++c) {
        width[c] = head[c].size();
    }
    for (const auto& row : rows) {
        for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
            width[c] = std::max(width[c], row[c].size());
        }
    }

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < width.size(); ++c) {
            const std::string& s = c < row.size() ? row[c] : std::string();
            os << std::left << std::setw(static_cast<int>(width[c]) + 2) << s;
        }
        os << '\n';
    };

    emit_row(head);
    std::size_t total = 0;
    for (auto w : width) {
        total += w + 2;
    }
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows) {
        emit_row(row);
    }
    return os.str();
}

} // namespace udp
