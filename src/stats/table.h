/**
 * @file
 * ASCII table rendering used by the benchmark harness to print
 * paper-style rows and series.
 */

#ifndef UDP_STATS_TABLE_H
#define UDP_STATS_TABLE_H

#include <string>
#include <vector>

namespace udp {

/**
 * A simple column-aligned table. Cells are strings; numeric helpers format
 * with fixed precision. Renders as aligned ASCII.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Starts a new row. */
    void beginRow();

    /** Appends a string cell to the current row. */
    void cell(const std::string& s);

    /** Appends a numeric cell with @p precision fractional digits. */
    void cell(double v, int precision = 3);

    /** Appends an integral cell. */
    void cell(std::uint64_t v);
    void cell(int v);

    /** Aligned ASCII rendering including a header separator. */
    std::string toAscii() const;

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows;
};

} // namespace udp

#endif // UDP_STATS_TABLE_H
