// Deliberately broken: an engine that frames its own image. The
// layout rule only fires when this body is attributed to a src/ path
// outside src/ckpt/ and src/engine/cluster.cc (the self-test feeds it
// as src/engine/bad.cc).
#include "ckpt/checkpoint.hh"

aqsim::ckpt::CheckpointImage
frameByHand(std::vector<std::uint8_t> nodes, std::vector<std::uint8_t> mpi)
{
    // A comment naming ckpt::sectionNodes must not fire.
    const char *label = "sectionsHash"; // nor this string
    aqsim::ckpt::CheckpointImage image;
    image.sections.push_back({aqsim::ckpt::sectionNodes, nodes});
    image.sections.push_back({aqsim::ckpt::sectionMpi, mpi});
    image.stateHash = aqsim::ckpt::sectionsHash(image.sections);
    (void)label;
    return image;
}
