#include "util/csv.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/contracts.hpp"

namespace imx::util {

namespace {

std::vector<std::string> split_line(const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream ss(line);
    while (std::getline(ss, cell, ',')) {
        // trim surrounding whitespace
        const auto first = cell.find_first_not_of(" \t\r");
        const auto last = cell.find_last_not_of(" \t\r");
        cells.push_back(first == std::string::npos
                            ? std::string{}
                            : cell.substr(first, last - first + 1));
    }
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    return cells;
}

CsvTable parse_stream(std::istream& in, bool has_header) {
    CsvTable table;
    std::string line;
    bool header_done = !has_header;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty() || line[0] == '#') continue;
        auto cells = split_line(line);
        if (!header_done) {
            table.header = std::move(cells);
            header_done = true;
        } else {
            table.rows.push_back(std::move(cells));
        }
    }
    return table;
}

}  // namespace

std::size_t CsvTable::column_index(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == name) return i;
    }
    throw std::out_of_range("CSV column not found: " + name);
}

std::vector<double> CsvTable::numeric_column(std::size_t index) const {
    std::vector<double> out;
    out.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto bad_cell = [&](const std::string& why) {
            const std::string column =
                index < header.size() ? "'" + header[index] + "'"
                                      : "column " + std::to_string(index + 1);
            // Rows number the way the file reads: the header is row 1.
            const std::size_t row = i + (header.empty() ? 1 : 2);
            return std::invalid_argument(column + " at row " +
                                         std::to_string(row) + ": " + why);
        };
        if (index >= rows[i].size()) throw bad_cell("missing");
        const std::string& cell = rows[i][index];
        char* end = nullptr;
        errno = 0;
        const double value = std::strtod(cell.c_str(), &end);
        if (end == cell.c_str() || *end != '\0' || errno == ERANGE) {
            throw bad_cell("not a number: '" + cell + "'");
        }
        out.push_back(value);
    }
    return out;
}

std::vector<double> CsvTable::numeric_column(const std::string& name) const {
    return numeric_column(column_index(name));
}

CsvTable read_csv(const std::string& path, bool has_header) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open CSV file: " + path);
    return parse_stream(in, has_header);
}

CsvTable parse_csv(const std::string& text, bool has_header) {
    std::istringstream in(text);
    return parse_stream(in, has_header);
}

struct CsvWriter::Impl {
    std::ofstream out;
};

CsvWriter::CsvWriter(std::string path) : impl_(new Impl{std::ofstream(path)}) {
    if (!impl_->out) {
        delete impl_;
        throw std::runtime_error("cannot open CSV file for writing: " + path);
    }
    // Doubles must round-trip exactly (traces, Q-tables).
    impl_->out << std::setprecision(17);
}

CsvWriter::~CsvWriter() { delete impl_; }

void CsvWriter::write_header(const std::vector<std::string>& names) {
    write_row(names);
}

void CsvWriter::write_row(const std::vector<double>& values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i) impl_->out << ',';
        impl_->out << values[i];
    }
    impl_->out << '\n';
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
        IMX_EXPECTS(cells[i].find(',') == std::string::npos);
        if (i) impl_->out << ',';
        impl_->out << cells[i];
    }
    impl_->out << '\n';
}

}  // namespace imx::util
