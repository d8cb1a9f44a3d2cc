/**
 * @file
 * The deployed model both serving workloads (asr_stream and
 * serve_bimodal) load: the paper's deployed datapath, a 12-bit
 * BackendKind::FixedPoint 2x512 block-16 GRU over 64 log-mel
 * features, saved as an artifact file that the server loads by path.
 */

#ifndef ERNN_PERFBENCH_SERVING_MODEL_HH
#define ERNN_PERFBENCH_SERVING_MODEL_HH

#include <string>

#include "harness.hh"
#include "speech/frontend.hh"

namespace perfbench
{

/** An artifact file written for one run; deleted with the object. */
class ServingArtifact
{
  public:
    /** Build the model from --seed, compile it and save it under
     *  opts.workDir. Smoke runs get a tiny geometry. */
    ServingArtifact(const Options &opts, const std::string &tag);
    ~ServingArtifact();

    ServingArtifact(const ServingArtifact &) = delete;
    ServingArtifact &operator=(const ServingArtifact &) = delete;

    const std::string &path() const { return path_; }

    /** Frontend whose frames the model takes. */
    const ernn::speech::FrontendConfig &frontend() const { return fc_; }
    std::size_t inputDim() const { return inputDim_; }

  private:
    std::string path_;
    ernn::speech::FrontendConfig fc_;
    std::size_t inputDim_ = 0;
};

} // namespace perfbench

#endif // ERNN_PERFBENCH_SERVING_MODEL_HH
