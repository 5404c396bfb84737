#include "stats/output.hh"

#include <iomanip>
#include <string>

#include "base/csv.hh"

namespace aqsim::stats
{

namespace
{

void
walkText(const Group &group, const std::string &prefix, std::ostream &out)
{
    const std::string path =
        prefix.empty() ? group.name() : prefix + "." + group.name();
    for (const auto &stat : group.statList()) {
        for (const auto &[label, value] : stat->rows()) {
            std::string full = path + "." + std::string(stat->name());
            if (!label.empty())
                full += "::" + label;
            out << std::left << std::setw(52) << full << ' '
                << std::setw(16) << std::setprecision(9) << value;
            if (*stat->desc() != '\0')
                out << " # " << stat->desc();
            out << '\n';
        }
    }
    for (const auto &child : group.children())
        walkText(*child, path, out);
}

void
walkCsv(const Group &group, const std::string &prefix, CsvWriter &csv)
{
    const std::string path =
        prefix.empty() ? group.name() : prefix + "." + group.name();
    for (const auto &stat : group.statList()) {
        for (const auto &[label, value] : stat->rows()) {
            csv.row()
                .field(path + "." + std::string(stat->name()))
                .field(label)
                .field(value)
                .field(stat->desc());
        }
    }
    for (const auto &child : group.children())
        walkCsv(*child, path, csv);
}

} // namespace

void
dumpText(const Group &root, std::ostream &out)
{
    walkText(root, "", out);
}

void
dumpCsv(const Group &root, std::ostream &out)
{
    CsvWriter csv(out);
    csv.header({"path", "label", "value", "description"});
    walkCsv(root, "", csv);
}

} // namespace aqsim::stats
