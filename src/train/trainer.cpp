#include "train/trainer.hpp"

#include <cstdio>
#include <cstring>

#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace ls::train {

double evaluate(nn::Network& net, const data::Dataset& test_set,
                std::size_t batch_size) {
  if (test_set.size() == 0) return 0.0;
  // One scratch batch tensor reused across the loop instead of a full
  // Dataset copy per batch (slice() copies images *and* labels); it only
  // reallocates for the final short batch. Labels are read in place.
  const tensor::Shape& full = test_set.images.shape();
  const std::size_t sample_elems = full.numel() / full[0];
  tensor::Tensor batch;
  std::size_t hits = 0;
  for (std::size_t lo = 0; lo < test_set.size(); lo += batch_size) {
    const std::size_t hi = std::min(lo + batch_size, test_set.size());
    const std::size_t rows = hi - lo;
    if (batch.empty() || batch.shape()[0] != rows) {
      batch = tensor::Tensor(
          tensor::Shape{rows, full[1], full[2], full[3]});
    }
    std::memcpy(batch.data(), test_set.images.data() + lo * sample_elems,
                rows * sample_elems * sizeof(float));
    const auto preds = net.predict(batch);
    for (std::size_t i = 0; i < rows; ++i) {
      if (preds[i] == test_set.labels[lo + i]) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(test_set.size());
}

TrainReport train_classifier(nn::Network& net, const data::Dataset& train_set,
                             const data::Dataset& test_set,
                             const TrainConfig& cfg,
                             GroupLassoRegularizer* reg) {
  TrainReport report;
  Sgd sgd(net.params(), cfg.sgd);
  data::Batcher batcher(train_set, cfg.batch_size, cfg.seed);

  static obs::Counter& batch_count =
      obs::Registry::instance().counter("train.batches");
  static obs::Counter& epoch_count =
      obs::Registry::instance().counter("train.epochs");

  double lr = cfg.sgd.lr;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    obs::Span epoch_span;
    if (obs::trace_enabled()) {
      epoch_span.begin(net.name() + ".epoch-" + std::to_string(epoch),
                       "train");
    }
    sgd.set_lr(lr);
    batcher.reset();
    tensor::Tensor images;
    std::vector<std::uint32_t> labels;
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    while (batcher.next(images, labels)) {
      obs::Span batch_span("train.batch", "train");
      net.zero_grad();
      const tensor::Tensor logits = net.forward(images, /*training=*/true);
      nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
      epoch_loss += loss.loss;
      ++batches;
      batch_count.inc();
      net.backward(loss.grad_logits);
      if (reg != nullptr && reg->mode() == LassoMode::kSubgradient) {
        reg->apply(lr);  // adds the penalty gradient before the step
      }
      sgd.step();
      if (reg != nullptr && reg->mode() == LassoMode::kProximal) {
        reg->apply(lr);  // proximal shrink after the step
      }
    }
    epoch_count.inc();
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    if (obs::trace_enabled()) {
      char args[64];
      std::snprintf(args, sizeof(args), "{\"loss\":%.6f,\"batches\":%zu}",
                    epoch_loss, batches);
      epoch_span.set_args(args);
    }
    report.epoch_loss.push_back(epoch_loss);
    report.epoch_penalty.push_back(reg ? reg->penalty() : 0.0);
    if (cfg.verbose) {
      LS_LOG_INFO("%s epoch %zu: loss=%.4f penalty=%.4f", net.name().c_str(),
                  epoch, epoch_loss, report.epoch_penalty.back());
    }
    lr *= cfg.lr_decay;
  }

  if (reg != nullptr) {
    report.dead_blocks_killed = reg->enforce_dead_blocks();
  }
  report.test_accuracy = evaluate(net, test_set);
  report.weight_sparsity = net.sparsity();
  return report;
}

}  // namespace ls::train
