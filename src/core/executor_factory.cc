#include "src/core/executor_factory.h"

#include <cstdlib>
#include <utility>

namespace seastar {

StatusOr<ExecutorSpec> ParseExecutorSpec(const std::string& spec) {
  ExecutorSpec parsed;
  const size_t colon = spec.find(':');
  const std::string kind = colon == std::string::npos ? spec : spec.substr(0, colon);
  if (kind == "seastar" || kind == "dgl" || kind == "pyg" || kind == "sharded") {
    parsed.kind = kind;
  } else if (kind == "seastar-nofuse" || kind == "nofuse") {
    parsed.kind = "seastar-nofuse";
  } else {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "unknown executor '" << spec << "' (choices: " << ExecutorFactory::Choices()
           << ")";
  }
  if (colon == std::string::npos) {
    return parsed;
  }
  if (parsed.kind != "sharded") {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "executor '" << kind << "' takes no parameter (got '" << spec << "')";
  }
  const std::string arg = spec.substr(colon + 1);
  if (arg.empty() || arg.find_first_not_of("0123456789") != std::string::npos) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "bad shard count in '" << spec << "': want sharded:<N> with N >= 1";
  }
  const long shards = std::strtol(arg.c_str(), nullptr, 10);
  if (shards < 1 || shards > 1024) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "shard count " << arg << " out of range [1, 1024]";
  }
  parsed.num_shards = static_cast<int>(shards);
  return parsed;
}

StatusOr<std::unique_ptr<Executor>> ExecutorFactory::Create(
    const std::string& spec, const ExecutorFactoryOptions& options) {
  StatusOr<ExecutorSpec> parsed = ParseExecutorSpec(spec);
  if (!parsed) {
    return parsed.status();
  }
  return Create(*parsed, options);
}

StatusOr<std::unique_ptr<Executor>> ExecutorFactory::Create(
    const ExecutorSpec& spec, const ExecutorFactoryOptions& options) {
  if (spec.kind == "seastar") {
    return std::unique_ptr<Executor>(std::make_unique<SeastarExecutor>(options.seastar_options));
  }
  if (spec.kind == "seastar-nofuse") {
    SeastarExecutorOptions seastar_options = options.seastar_options;
    seastar_options.enable_fusion = false;
    return std::unique_ptr<Executor>(std::make_unique<SeastarExecutor>(seastar_options));
  }
  if (spec.kind == "dgl" || spec.kind == "pyg") {
    BaselineExecutorOptions baseline_options = options.baseline_options;
    baseline_options.flavor =
        spec.kind == "dgl" ? BaselineFlavor::kDglLike : BaselineFlavor::kPygLike;
    return std::unique_ptr<Executor>(std::make_unique<BaselineExecutor>(baseline_options));
  }
  if (spec.kind == "sharded") {
    if (spec.num_shards < 1) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << "sharded executor needs num_shards >= 1, got " << spec.num_shards;
    }
    ShardRuntimeOptions shard_options;
    shard_options.num_shards = spec.num_shards;
    shard_options.seastar_options = options.seastar_options;
    shard_options.use_pool_slices = options.use_pool_slices;
    return std::unique_ptr<Executor>(std::make_unique<ShardRuntime>(shard_options));
  }
  return ErrorStatus(StatusCode::kInvalidArgument)
         << "unknown executor kind '" << spec.kind << "' (choices: " << Choices() << ")";
}

const char* ExecutorFactory::Choices() { return "seastar|seastar-nofuse|dgl|pyg|sharded[:N]"; }

}  // namespace seastar
