#include "ckpt/manager.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace aqsim::ckpt
{

namespace fs = std::filesystem;

CheckpointManager::CheckpointManager(std::string dir, std::uint64_t every,
                                     std::size_t keep_last)
    : dir_(std::move(dir)), every_(every), keepLast_(keep_last)
{
    if (!dir_.empty()) {
        std::error_code ec;
        fs::create_directories(dir_, ec);
    }
}

bool
CheckpointManager::due(std::uint64_t quantum_index) const
{
    return every_ > 0 && quantum_index > 0 &&
           quantum_index % every_ == 0;
}

std::string
CheckpointManager::fileName(std::uint64_t quantum_index) const
{
    char name[48];
    std::snprintf(name, sizeof(name), "ckpt-q%012llu.aqc",
                  static_cast<unsigned long long>(quantum_index));
    return dir_ + "/" + name;
}

std::string
CheckpointManager::panicFileName() const
{
    return dir_ + "/panic.aqc";
}

bool
CheckpointManager::write(const CheckpointImage &image, CkptError &error)
{
    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> encoded = sealImage(image);
    if (corruptNextWrite_) {
        corruptNextWrite_ = false;
        if (encoded.size() > 16)
            encoded[encoded.size() / 2] ^= 0xff;
    }
    const std::string path = fileName(image.quantumIndex);
    if (!writeFileAtomic(path, encoded, error))
        return false;
    // Read-back verification: only an image proven decodable may
    // become rotation's survivor. A torn or bit-flipped write is
    // deleted on the spot and rotation is skipped, so the previous
    // good file stays on disk even under keep-last-1.
    std::vector<std::uint8_t> readback;
    CkptError verify_error;
    if (!readFile(path, readback, verify_error) ||
        !verifyImage(readback, verify_error)) {
        std::error_code ec;
        fs::remove(path, ec);
        error = {"verify", path + " failed read-back verification: " +
                               verify_error.str()};
        return false;
    }
    verifiedPath_ = path;
    rotate();
    const auto end = std::chrono::steady_clock::now();

    base::MutexLock lock(statsMutex_);
    ++stats_.written;
    stats_.bytes += encoded.size();
    stats_.writeNs += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
    return true;
}

CkptWriteStats
CheckpointManager::stats() const
{
    base::MutexLock lock(statsMutex_);
    return stats_;
}

std::vector<std::pair<std::uint64_t, std::string>>
CheckpointManager::listFiles() const
{
    std::vector<std::pair<std::uint64_t, std::string>> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        unsigned long long q = 0;
        if (std::sscanf(name.c_str(), "ckpt-q%llu.aqc", &q) != 1)
            continue;
        files.emplace_back(q, entry.path().string());
    }
    std::sort(files.begin(), files.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    return files;
}

void
CheckpointManager::rotate()
{
    if (keepLast_ == 0)
        return;
    const auto files = listFiles();
    for (std::size_t i = keepLast_; i < files.size(); ++i) {
        // Never delete the newest verified image: if unverified (or
        // externally written, possibly torn) files newer than it push
        // it past the keep budget, it is still the only checkpoint
        // recovery is guaranteed to accept.
        if (files[i].second == verifiedPath_)
            continue;
        std::error_code ec;
        fs::remove(files[i].second, ec);
    }
}

bool
CheckpointManager::loadBest(CheckpointImage &out, std::string &path_out,
                            CkptError &error)
{
    skipped_.clear();
    const auto files = listFiles();
    if (files.empty()) {
        error = {"header", "no checkpoint files in " + dir_};
        return false;
    }
    for (const auto &[q, path] : files) {
        std::vector<std::uint8_t> raw;
        CkptError file_error;
        if (!readFile(path, raw, file_error) ||
            !decodeImage(raw, out, file_error)) {
            skipped_.push_back(path + ": " + file_error.str());
            continue;
        }
        path_out = path;
        return true;
    }
    error = {"header", "no decodable checkpoint in " + dir_ + " (" +
                           std::to_string(skipped_.size()) +
                           " corrupt/torn candidates skipped)"};
    return false;
}

void
CheckpointManager::stashPanicImage(
    std::shared_ptr<const CheckpointImage> image)
{
    base::MutexLock lock(panicMutex_);
    panicImage_ = std::move(image);
}

std::string
CheckpointManager::writePanicImage()
{
    std::shared_ptr<const CheckpointImage> image;
    {
        base::MutexLock lock(panicMutex_);
        image = panicImage_;
    }
    if (!image)
        return "";
    CkptError error;
    if (!writeFileAtomic(panicFileName(), sealImage(*image), error))
        return "";
    return panicFileName();
}

} // namespace aqsim::ckpt
