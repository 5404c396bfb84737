#include "analyzer.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace fs = std::filesystem;

namespace aqsim::analyze
{

namespace
{

/**
 * The declared module-layer DAG, bottom (0) to top. A module may
 * include its own layer and every layer below it; reaching *up* is a
 * layering violation. `ckpt_io` (ckpt/ckpt_io.*) is split out of
 * `ckpt` because the Writer/Reader serialization primitive sits far
 * below the checkpoint orchestration that snapshots whole clusters;
 * `engine` and `ckpt` share a layer because images are built from
 * engine state while engines drive the checkpoint lifecycle.
 * `supervise` sits between the engines it drives and the harness
 * that must reach engines only through it (the engine-seam lint
 * rule) — the supervisor owns the run lifecycle, the harness owns
 * experiment composition.
 * Rationale and diagram: docs/static-analysis.md.
 */
const std::vector<std::vector<std::string>> kLayers = {
    {"base"},
    {"check", "stats"},
    {"ckpt_io", "sim"},
    {"fault", "net", "node", "mpi", "core", "transport"},
    {"trace", "workloads"},
    {"engine", "ckpt"},
    {"supervise"},
    {"harness"},
    {"root"},
};

struct IncludeEdge
{
    int line;
    std::string target; ///< resolved root-relative path
};

struct SourceFile
{
    std::string rel;      ///< root-relative path, '/'-separated
    std::string stripped; ///< comment/string-stripped text
    std::vector<IncludeEdge> includes;
};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Offset of the first character of each line, for offset->line. */
std::vector<std::size_t>
lineStarts(const std::string &text)
{
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] == '\n')
            starts.push_back(i + 1);
    return starts;
}

int
lineAt(const std::vector<std::size_t> &starts, std::size_t offset)
{
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), offset);
    return static_cast<int>(it - starts.begin());
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string current;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!current.empty())
        lines.push_back(current);
    return lines;
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };
    State state = State::Code;
    std::string raw_delim; ///< the )delim" closing a raw string
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                out += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                out += "  ";
                ++i;
            } else if (c == 'R' && next == '"' &&
                       (i == 0 || !isWordChar(text[i - 1]))) {
                // R"delim( ... )delim"
                std::size_t p = i + 2;
                std::string delim;
                while (p < text.size() && text[p] != '(' &&
                       delim.size() < 20)
                    delim += text[p++];
                raw_delim = ")" + delim + "\"";
                state = State::RawString;
                out += "\"";
                for (std::size_t k = i + 1; k <= p && k < text.size();
                     ++k)
                    out += ' ';
                i = p;
            } else if (c == '"') {
                state = State::String;
                out += '"';
            } else if (c == '\'') {
                state = State::Char;
                out += '\'';
            } else {
                out += c;
            }
            break;
          case State::LineComment:
            if (c == '\n') {
                state = State::Code;
                out += '\n';
            } else {
                out += ' ';
            }
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                state = State::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
          case State::String:
            if (c == '\\' && next != '\0') {
                out += "  ";
                ++i;
            } else if (c == '"') {
                state = State::Code;
                out += '"';
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
          case State::Char:
            if (c == '\\' && next != '\0') {
                out += "  ";
                ++i;
            } else if (c == '\'') {
                state = State::Code;
                out += '\'';
            } else {
                out += ' ';
            }
            break;
          case State::RawString:
            if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
                for (std::size_t k = 0; k < raw_delim.size(); ++k)
                    out += ' ';
                out.back() = '"';
                i += raw_delim.size() - 1;
                state = State::Code;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
    }
    return out;
}

std::string
moduleOf(const std::string &rel_path)
{
    if (rel_path == "ckpt/ckpt_io.hh" || rel_path == "ckpt/ckpt_io.cc")
        return "ckpt_io";
    const auto slash = rel_path.find('/');
    if (slash == std::string::npos)
        return "root";
    return rel_path.substr(0, slash);
}

int
layerOf(const std::string &module)
{
    for (std::size_t i = 0; i < kLayers.size(); ++i)
        for (const auto &m : kLayers[i])
            if (m == module)
                return static_cast<int>(i);
    return -1;
}

namespace
{

const std::regex kIncludeRe(
    R"(^\s*#\s*include\s*\"([^\"]+)\")");
const std::regex kUnorderedRe(
    R"(\bunordered_(map|set|multimap|multiset)\b)");
const std::regex kIterOrderRe(
    R"((\w+)\s*\.\s*(c?r?begin|c?r?end)\s*\(\s*\)\s*(<=|>=|<|>)\s*(\w+)\s*\.\s*(c?r?begin|c?r?end)\s*\(\s*\))");

/** Scan per-line rules + includes for one file. */
void
scanFile(const SourceFile &file, const std::string &src_root,
         std::vector<Finding> &findings)
{
    const auto lines = splitLines(file.stripped);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        const int lineno = static_cast<int>(i) + 1;
        std::smatch m;
        if (std::regex_search(line, m, kUnorderedRe)) {
            findings.push_back(
                {file.rel, lineno, "unordered-container",
                 "std::" + m.str(0) +
                     " iteration order is implementation-defined; "
                     "simulation state must use ordered containers "
                     "(runs are pure functions of the seed)"});
        }
        if (std::regex_search(line, m, kIterOrderRe) &&
            m.str(1) != m.str(4)) {
            findings.push_back(
                {file.rel, lineno, "iterator-order",
                 "relational comparison of iterators from '" +
                     m.str(1) + "' and '" + m.str(4) +
                     "' orders by address, which varies run to run "
                     "(and is UB across containers)"});
        }
    }
    (void)src_root;
}

/**
 * Scan for ordered containers keyed by an address: map/set (and
 * multi- variants) whose first template argument is a raw or smart
 * pointer. Works on the whole stripped text so multi-line
 * declarations are caught.
 */
void
scanPointerKeys(const SourceFile &file, std::vector<Finding> &findings)
{
    const std::string &text = file.stripped;
    const auto starts = lineStarts(text);
    static const std::vector<std::string> kContainers = {
        "map", "set", "multimap", "multiset"};
    for (const auto &name : kContainers) {
        std::size_t pos = 0;
        while ((pos = text.find(name, pos)) != std::string::npos) {
            const std::size_t begin = pos;
            pos += name.size();
            if (begin > 0 && isWordChar(text[begin - 1]))
                continue; // suffix of a longer identifier
            std::size_t p = pos;
            while (p < text.size() &&
                   std::isspace(static_cast<unsigned char>(text[p])))
                ++p;
            if (p >= text.size() || text[p] != '<')
                continue; // not a template instantiation
            if (pos < text.size() && isWordChar(text[pos]))
                continue;
            // Extract the first template argument at depth 0.
            ++p;
            int angle = 0, paren = 0, square = 0;
            std::string arg;
            for (; p < text.size(); ++p) {
                const char c = text[p];
                if (c == '<')
                    ++angle;
                else if (c == '>') {
                    if (angle == 0)
                        break;
                    --angle;
                } else if (c == '(')
                    ++paren;
                else if (c == ')')
                    --paren;
                else if (c == '[')
                    ++square;
                else if (c == ']')
                    --square;
                else if (c == ',' && angle == 0 && paren == 0 &&
                         square == 0)
                    break;
                arg += c;
            }
            if (p >= text.size())
                continue; // unterminated; not a real instantiation
            const bool raw_ptr =
                arg.find('*') != std::string::npos;
            const bool smart_ptr =
                std::regex_search(arg, std::regex(R"(\b(shared_ptr|unique_ptr|weak_ptr)\s*<)"));
            if (raw_ptr || smart_ptr) {
                findings.push_back(
                    {file.rel, lineAt(starts, begin), "pointer-key",
                     "ordered container '" + name +
                         "' keyed by a pointer ('" + arg +
                         "'): iteration follows allocation addresses, "
                         "which vary run to run; key by a stable id "
                         "instead"});
            }
        }
    }
}

/**
 * Queue-seam rule: the engine module may drive node event queues only
 * through the shard-execution seam (engine/shard_exec.cc), so the
 * per-destination exchange merge stays the single delivery path and
 * the bit-identity argument across worker counts has one choke point
 * to audit. deliverAt is banned alongside the raw EventQueue mutators:
 * post-exchange dispatch is only legal via dispatchDelivery (and the
 * urgent path via deliverUrgent) on the shard that owns the
 * destination node — a direct NIC delivery from engine code would
 * bypass both the canonical per-column order and the ownership rule.
 * Method-call syntax is what distinguishes a queue mutation from the
 * engine's own same-named helpers (a bare `runNodeQuantum(` never
 * matches; `queue.runOne(` does).
 */
const std::regex kQueueMutatorRe(
    R"((\.|->)\s*(runOne|runBefore|runUntil|fastForwardTo|scheduleIn|schedule|deschedule|deliverAt)\s*\()");

void
scanQueueSeam(const SourceFile &file, std::vector<Finding> &findings)
{
    if (moduleOf(file.rel) != "engine" ||
        file.rel == "engine/shard_exec.cc")
        return;
    const auto lines = splitLines(file.stripped);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::smatch m;
        if (std::regex_search(lines[i], m, kQueueMutatorRe)) {
            findings.push_back(
                {file.rel, static_cast<int>(i) + 1, "queue-seam",
                 "event-queue mutator '" + m.str(2) +
                     "' called from engine code outside the "
                     "shard-execution seam (engine/shard_exec.cc); "
                     "route execution through runNodeQuantum/stepNode/"
                     "advanceNodeTo/snapToQuantumEnd and dispatch "
                     "through dispatchDelivery/deliverUrgent so each "
                     "destination shard's exchange merge stays the "
                     "only delivery path"});
        }
    }
}

/** Layering + include-cycle checks over the whole tree. */
void
checkGraph(const std::vector<SourceFile> &files,
           std::vector<Finding> &findings)
{
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < files.size(); ++i)
        index[files[i].rel] = i;

    // Named-edge layering violations.
    for (const auto &file : files) {
        const std::string from_mod = moduleOf(file.rel);
        const int from_layer = layerOf(from_mod);
        for (const auto &edge : file.includes) {
            const std::string to_mod = moduleOf(edge.target);
            if (to_mod == from_mod)
                continue;
            const int to_layer = layerOf(to_mod);
            if (from_layer < 0 || to_layer < 0)
                continue; // unknown module: layering not declared
            if (to_layer > from_layer) {
                findings.push_back(
                    {file.rel, edge.line, "layering",
                     "include of \"" + edge.target + "\" reaches up "
                     "the layer DAG: module '" + from_mod + "' (layer " +
                     std::to_string(from_layer) + ") -> '" + to_mod +
                     "' (layer " + std::to_string(to_layer) + ")"});
            }
        }
    }

    // File-level include cycles (DFS, deterministic order).
    enum class Color
    {
        White,
        Gray,
        Black,
    };
    std::vector<Color> color(files.size(), Color::White);
    std::vector<std::size_t> stack;
    std::set<std::string> reported;

    struct Dfs
    {
        const std::vector<SourceFile> &files;
        std::map<std::string, std::size_t> &index;
        std::vector<Color> &color;
        std::vector<std::size_t> &stack;
        std::set<std::string> &reported;
        std::vector<Finding> &findings;

        void
        visit(std::size_t u)
        {
            color[u] = Color::Gray;
            stack.push_back(u);
            for (const auto &edge : files[u].includes) {
                const auto it = index.find(edge.target);
                if (it == index.end())
                    continue;
                const std::size_t v = it->second;
                if (color[v] == Color::Gray) {
                    // Back edge: the cycle is stack[v..] + v.
                    auto at = std::find(stack.begin(), stack.end(), v);
                    std::string path;
                    for (auto jt = at; jt != stack.end(); ++jt)
                        path += files[*jt].rel + " -> ";
                    path += files[v].rel;
                    if (reported.insert(path).second) {
                        findings.push_back(
                            {files[u].rel, edge.line, "include-cycle",
                             "include cycle: " + path});
                    }
                } else if (color[v] == Color::White) {
                    visit(v);
                }
            }
            stack.pop_back();
            color[u] = Color::Black;
        }
    };
    Dfs dfs{files, index, color, stack, reported, findings};
    for (std::size_t i = 0; i < files.size(); ++i)
        if (color[i] == Color::White)
            dfs.visit(i);
}

/**
 * Checkpoint-coverage heuristic: every data member of every struct
 * defined in ckpt/checkpoint.hh must appear (as a token) in
 * ckpt/checkpoint.cc, or a freshly added snapshot field is silently
 * never encoded/decoded.
 */
void
checkCkptCoverage(const std::vector<SourceFile> &files,
                  std::vector<Finding> &findings)
{
    const SourceFile *header = nullptr;
    const SourceFile *impl = nullptr;
    for (const auto &f : files) {
        if (f.rel == "ckpt/checkpoint.hh")
            header = &f;
        else if (f.rel == "ckpt/checkpoint.cc")
            impl = &f;
    }
    if (!header || !impl)
        return; // tree has no checkpoint layer; rule not applicable

    const std::string &text = header->stripped;
    const auto starts = lineStarts(text);

    // Walk `struct X {` / `class X {` definitions.
    static const std::regex kStructRe(
        R"(\b(struct|class)\s+(\w+)\s*(final\s*)?([:{]))");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        kStructRe);
         it != std::sregex_iterator(); ++it) {
        const std::string struct_name = (*it)[2];
        std::size_t p =
            static_cast<std::size_t>(it->position(4));
        // Skip a base-clause to the opening brace.
        while (p < text.size() && text[p] != '{' && text[p] != ';')
            ++p;
        if (p >= text.size() || text[p] != '{')
            continue; // forward declaration
        // Collect depth-1 statements of the body.
        int depth = 0;
        std::string stmt;
        std::size_t stmt_first = 0; ///< offset of stmt's first token
        for (; p < text.size(); ++p) {
            const char c = text[p];
            if (c == '{') {
                ++depth;
                continue;
            }
            if (c == '}') {
                --depth;
                if (depth == 0)
                    break;
                continue;
            }
            if (depth != 1)
                continue;
            if (c != ';') {
                if (stmt.empty() &&
                    !std::isspace(static_cast<unsigned char>(c)))
                    stmt_first = p;
                if (!stmt.empty() ||
                    !std::isspace(static_cast<unsigned char>(c)))
                    stmt += c;
                continue;
            }
            // One depth-1 statement ending at p.
            std::string s = stmt;
            stmt.clear();
            const std::size_t here = stmt_first;
            // Drop access-specifier labels glued to the front.
            static const std::regex kAccessRe(
                R"((public|private|protected)\s*:)");
            s = std::regex_replace(s, kAccessRe, " ");
            if (s.find('(') != std::string::npos)
                continue; // member function (or function pointer)
            static const std::regex kSkipRe(
                R"(^\s*(using|typedef|friend|enum|struct|class|template)\b)");
            if (std::regex_search(s, kSkipRe))
                continue;
            // Field declarator: last identifier before '=', '[' or
            // the end. (Multi-declarator lines split on top-level ','
            // are not used in this codebase; keep the common case.)
            const std::size_t eq = s.find('=');
            std::string decl =
                eq == std::string::npos ? s : s.substr(0, eq);
            const std::size_t br = decl.find('[');
            if (br != std::string::npos)
                decl = decl.substr(0, br);
            static const std::regex kIdentRe(R"((\w+)\s*$)");
            std::smatch m;
            if (!std::regex_search(decl, m, kIdentRe))
                continue;
            const std::string field = m.str(1);
            static const std::regex kTypeTailRe(R"(^(const|int|char|bool|float|double|long|short|unsigned|signed|auto)$)");
            if (std::regex_match(field, kTypeTailRe))
                continue; // e.g. `struct X;` artifacts — not a field
            const std::regex token_re("\\b" + field + "\\b");
            if (!std::regex_search(impl->stripped, token_re)) {
                findings.push_back(
                    {header->rel, lineAt(starts, here), "ckpt-coverage",
                     "field '" + field + "' of snapshotted struct '" +
                         struct_name +
                         "' never appears in ckpt/checkpoint.cc "
                         "encode/decode — checkpoints would silently "
                         "omit it"});
            }
        }
    }
}

} // namespace

std::vector<Finding>
analyzeTree(const std::string &src_root)
{
    std::vector<Finding> findings;
    const fs::path root(src_root);

    std::vector<std::string> rels;
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file())
            continue;
        const auto ext = it->path().extension().string();
        if (ext != ".hh" && ext != ".cc" && ext != ".cpp")
            continue;
        std::string rel =
            fs::relative(it->path(), root).generic_string();
        rels.push_back(std::move(rel));
    }
    std::sort(rels.begin(), rels.end());

    std::vector<SourceFile> files;
    files.reserve(rels.size());
    for (const auto &rel : rels) {
        SourceFile f;
        f.rel = rel;
        const std::string raw = readFile(root / rel);
        f.stripped = stripCommentsAndStrings(raw);
        // Include paths live inside the quotes the stripper blanks,
        // so extract them from the raw line — but only where the
        // stripped line confirms a real include directive (and not,
        // say, one quoted inside a comment).
        const auto raw_lines = splitLines(raw);
        const auto stripped_lines = splitLines(f.stripped);
        static const std::regex kIncludeHereRe(
            R"(^\s*#\s*include\s*\")");
        for (std::size_t i = 0; i < raw_lines.size(); ++i) {
            if (i >= stripped_lines.size() ||
                !std::regex_search(stripped_lines[i], kIncludeHereRe))
                continue;
            std::smatch m;
            if (std::regex_search(raw_lines[i], m, kIncludeRe)) {
                const std::string target = m.str(1);
                if (fs::exists(root / target))
                    f.includes.push_back(
                        {static_cast<int>(i) + 1, target});
            }
        }
        files.push_back(std::move(f));
    }

    for (const auto &f : files) {
        scanFile(f, src_root, findings);
        scanPointerKeys(f, findings);
        scanQueueSeam(f, findings);
    }
    checkGraph(files, findings);
    checkCkptCoverage(files, findings);

    std::sort(findings.begin(), findings.end());
    return findings;
}

} // namespace aqsim::analyze
