// Minimal CSV reading/writing for traces and experiment outputs.
// Handles plain numeric/str fields; no quoting/escaping (none of our data
// needs it, and the loader rejects embedded commas loudly rather than
// guessing).
#ifndef IMX_UTIL_CSV_HPP
#define IMX_UTIL_CSV_HPP

#include <string>
#include <vector>

namespace imx::util {

/// A parsed CSV file: optional header plus rows of string cells.
struct CsvTable {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    [[nodiscard]] std::size_t column_index(const std::string& name) const;
    /// Every row's cell in one column, each parsed in full as a double.
    /// \throws std::invalid_argument naming the column and row when a row
    /// has no such cell or the cell is not a number.
    [[nodiscard]] std::vector<double> numeric_column(std::size_t index) const;
    [[nodiscard]] std::vector<double> numeric_column(const std::string& name) const;
};

/// Read a CSV file. If has_header, the first non-empty line becomes header.
CsvTable read_csv(const std::string& path, bool has_header = true);

/// Parse CSV from an in-memory string (used by tests).
CsvTable parse_csv(const std::string& text, bool has_header = true);

/// Incremental CSV writer.
class CsvWriter {
public:
    explicit CsvWriter(std::string path);
    ~CsvWriter();
    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;

    void write_header(const std::vector<std::string>& names);
    void write_row(const std::vector<double>& values);
    void write_row(const std::vector<std::string>& cells);

private:
    struct Impl;
    Impl* impl_;  // pimpl keeps <fstream> out of the header
};

}  // namespace imx::util

#endif  // IMX_UTIL_CSV_HPP
