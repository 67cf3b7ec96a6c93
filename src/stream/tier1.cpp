#include "stream/tier1.h"

#include <stdexcept>
#include <string>

#include "nn/trainer.h"

namespace sne::stream {

std::int64_t Tier1Cnn::trunk_output_extent(std::int64_t crop,
                                           std::int64_t kernel) {
  std::int64_t e = crop;
  for (int stage = 0; stage < 2; ++stage) {
    e = e - kernel + 1;  // valid convolution
    if (e < 2) {
      throw std::invalid_argument(
          "Tier1Cnn: crop too small for two conv/pool stages");
    }
    e /= 2;  // 2×2 pooling
  }
  return e;
}

Tier1Cnn::Tier1Cnn(const Tier1Config& config, Rng& rng) : config_(config) {
  const std::int64_t out_extent =
      trunk_output_extent(config.crop, config.kernel);

  std::int64_t in_ch = 1;
  for (std::size_t stage = 0; stage < config.conv_channels.size(); ++stage) {
    const std::int64_t out_ch = config.conv_channels[stage];
    const std::string tag = "tier1.conv" + std::to_string(stage + 1);
    net_.emplace<nn::Conv2d>(in_ch, out_ch, config.kernel, rng, 1, 0, tag);
    net_.emplace<nn::BatchNorm2d>(out_ch, 0.1f, 1e-5f, tag + ".bn");
    net_.emplace<nn::PReLU>(out_ch, 0.25f, tag + ".prelu");
    net_.emplace<nn::MaxPool2d>(2);
    in_ch = out_ch;
  }
  net_.emplace<nn::Flatten>();
  net_.emplace<nn::Linear>(in_ch * out_extent * out_extent, config.fc_hidden,
                           rng, "tier1.fc1");
  net_.emplace<nn::PReLU>(config.fc_hidden, 0.25f, "tier1.fc1.prelu");
  net_.emplace<nn::Linear>(config.fc_hidden, 1, rng, "tier1.out");
}

std::unique_ptr<Tier1Cnn> train_tier1(const sim::SnDataset& data,
                                      const std::vector<std::int64_t>& samples,
                                      const Tier1Config& model_config,
                                      const Tier1TrainConfig& train_config) {
  Rng rng(train_config.seed);
  auto cnn = std::make_unique<Tier1Cnn>(model_config, rng);

  const nn::LazyDataset pairs = sim::make_real_bogus_dataset(
      data, samples, model_config.crop, train_config.max_real_mag,
      train_config.seed ^ 0xB0605ULL);

  nn::Adam adam(cnn->params(), train_config.lr);
  nn::Trainer trainer(*cnn, adam, nn::bce_with_logits_loss,
                      nn::binary_accuracy);
  nn::TrainConfig tc;
  tc.epochs = train_config.epochs;
  tc.batch_size = train_config.batch_size;
  tc.shuffle_seed = train_config.seed + 1;
  std::vector<nn::EpochStats> history = trainer.fit(pairs, nullptr, tc);
  if (train_config.history != nullptr) {
    *train_config.history = std::move(history);
  }
  cnn->set_training(false);
  return cnn;
}

std::shared_ptr<const infer::InferencePlan> compile_tier1_plan(
    const Tier1Cnn& cnn, const core::SessionOptions& options) {
  const std::int64_t c = cnn.config().crop;
  infer::PlanOptions plan = core::plan_options(options);
  plan.name = "tier1";
  return std::make_shared<const infer::InferencePlan>(cnn.net(),
                                                      Shape{1, c, c}, plan);
}

infer::InferenceSession make_tier1_session(
    const Tier1Cnn& cnn, const core::SessionOptions& options) {
  return infer::InferenceSession(compile_tier1_plan(cnn, options));
}

}  // namespace sne::stream
