#include "fault/peer_drill.hh"

#include <cstdlib>

#include "base/logging.hh"

namespace aqsim::fault
{

namespace
{

std::uint64_t
parseCount(const std::string &text, const std::string &spec)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("peer-drill \"%s\": bad number \"%s\"", spec.c_str(),
              text.c_str());
    return v;
}

PeerDrill
parseOne(const std::string &item)
{
    PeerDrill drill;
    const std::size_t colon = item.find(':');
    const std::string op = item.substr(0, colon);
    if (op == "kill")
        drill.op = PeerDrillOp::Kill;
    else if (op == "stop")
        drill.op = PeerDrillOp::Stop;
    else if (op == "exit")
        drill.op = PeerDrillOp::Exit;
    else
        fatal("peer-drill \"%s\": unknown op \"%s\" "
              "(kill, stop, exit)",
              item.c_str(), op.c_str());

    bool saw_peer = false;
    std::string rest =
        colon == std::string::npos ? "" : item.substr(colon + 1);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string kv = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("peer-drill \"%s\": expected k=v, got \"%s\"",
                  item.c_str(), kv.c_str());
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "peer") {
            drill.peer =
                static_cast<std::size_t>(parseCount(val, item));
            saw_peer = true;
        } else if (key == "quantum") {
            drill.quantum = parseCount(val, item);
            if (drill.quantum == 0)
                fatal("peer-drill \"%s\": quantum is 1-based",
                      item.c_str());
        } else if (key == "phase") {
            if (val == "hello")
                drill.phase = PeerDrillPhase::Hello;
            else if (val == "exchange")
                drill.phase = PeerDrillPhase::Exchange;
            else if (val == "sent")
                drill.phase = PeerDrillPhase::Sent;
            else if (val == "ack")
                drill.phase = PeerDrillPhase::Ack;
            else
                fatal("peer-drill \"%s\": unknown phase \"%s\" "
                      "(hello, exchange, sent, ack)",
                      item.c_str(), val.c_str());
        } else {
            fatal("peer-drill \"%s\": unknown key \"%s\"",
                  item.c_str(), key.c_str());
        }
    }
    if (!saw_peer)
        fatal("peer-drill \"%s\": peer= is required", item.c_str());
    return drill;
}

} // namespace

std::vector<PeerDrill>
parsePeerDrills(const std::string &text)
{
    std::vector<PeerDrill> drills;
    std::string rest = text;
    while (!rest.empty()) {
        const std::size_t semi = rest.find(';');
        const std::string item = rest.substr(0, semi);
        rest = semi == std::string::npos ? "" : rest.substr(semi + 1);
        if (!item.empty())
            drills.push_back(parseOne(item));
    }
    return drills;
}

} // namespace aqsim::fault
