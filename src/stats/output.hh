/**
 * @file
 * Text and CSV rendering of statistics: group trees and descriptor
 * values share one row writer.
 */

#ifndef AQSIM_STATS_OUTPUT_HH
#define AQSIM_STATS_OUTPUT_HH

#include <optional>
#include <ostream>
#include <string>

#include "base/csv.hh"
#include "base/logging.hh"
#include "stats/stats.hh"

namespace aqsim::stats
{

/** Aligned "path.to.stat  value  # desc" rows (gem5 stats.txt
 * style), or CSV rows (path,label,value,description). */
enum class Format { Text, Csv };

/** Writes stat rows to a stream in one Format. */
class Dump
{
  public:
    Dump(std::ostream &out, Format format);

    /** The rows of one stat at dotted @p path. */
    void stat(const std::string &path, const Rows &rows, const char *desc);

    /** Every stat of @p group and its children, under @p prefix. */
    void group(const Group &group, const std::string &prefix);

    /**
     * The stats of one @p table instance from its appendValues()
     * array at @p at, under @p path. @return the first value past
     * them; @p end bounds the read.
     */
    template <typename Owner>
    const std::uint64_t *
    values(const std::string &path, Descriptors<Owner> table,
           const std::uint64_t *at, const std::uint64_t *end)
    {
        for (const Descriptor<Owner> &d : table) {
            const std::string full = path + "." + d.name;
            if (d.counter) {
                AQSIM_ASSERT(at < end);
                stat(full, {{"", static_cast<double>(*at++)}}, d.desc);
                continue;
            }
            AQSIM_ASSERT(end - at >= 4 &&
                         at[3] <= static_cast<std::uint64_t>(end - at - 4));
            const Log2Counts c{{at + 4, at + 4 + at[3]}, at[0], at[1], at[2]};
            at += 4 + at[3];
            stat(full, c.rows(), d.desc);
        }
        return at;
    }

  private:
    std::ostream &out_;
    std::optional<CsvWriter> csv_;
};

} // namespace aqsim::stats

#endif // AQSIM_STATS_OUTPUT_HH
