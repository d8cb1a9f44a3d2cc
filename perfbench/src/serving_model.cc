#include "serving_model.hh"

#include <unistd.h>

#include <cstdio>

#include "nn/model_builder.hh"
#include "runtime/artifact.hh"

namespace perfbench
{

using namespace ernn;

ServingArtifact::ServingArtifact(const Options &opts,
                                 const std::string &tag)
{
    const std::size_t hidden = opts.smoke ? 64 : 512;
    fc_.melBands = opts.smoke ? 16 : 64;
    inputDim_ = speech::AcousticFrontend(fc_).featureDim();

    nn::ModelSpec spec;
    spec.type = nn::ModelType::Gru;
    spec.inputDim = inputDim_;
    spec.numClasses = 39;
    spec.layerSizes = {hidden, hidden};
    spec.blockSizes = {16, 16};
    nn::StackedRnn net = nn::buildModel(spec);
    Rng rng(mixSeed(opts.seed, 3000));
    net.initXavier(rng);
    runtime::CompileOptions co;
    co.backend = runtime::BackendKind::FixedPoint;
    path_ = opts.workDir + "/" + tag + "-" + std::to_string(getpid()) +
            ".ernn";
    runtime::saveArtifact(runtime::compile(net, co), path_);
}

ServingArtifact::~ServingArtifact()
{
    std::remove(path_.c_str());
}

} // namespace perfbench
