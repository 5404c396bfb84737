#include "stats/output.hh"

#include <iomanip>

namespace aqsim::stats
{

Dump::Dump(std::ostream &out, Format format) : out_(out)
{
    if (format == Format::Csv) {
        csv_.emplace(out);
        csv_->header({"path", "label", "value", "description"});
    }
}

void
Dump::stat(const std::string &path, const Rows &rows, const char *desc)
{
    for (const auto &[label, value] : rows) {
        if (csv_) {
            csv_->row().field(path).field(label).field(value).field(desc);
            continue;
        }
        const std::string full = label.empty() ? path : path + "::" + label;
        out_ << std::left << std::setw(52) << full << ' ' << std::setw(16)
             << std::setprecision(9) << value;
        if (*desc != '\0')
            out_ << " # " << desc;
        out_ << '\n';
    }
}

void
Dump::group(const Group &group, const std::string &prefix)
{
    const std::string path =
        prefix.empty() ? group.name() : prefix + "." + group.name();
    for (const auto &s : group.statList())
        stat(path + "." + std::string(s->name()), s->rows(), s->desc());
    for (const auto &child : group.children())
        this->group(*child, path);
}

} // namespace aqsim::stats
