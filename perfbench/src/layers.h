// The layers the traced run attributes time to: one per repository
// module whose public functions the benchmark calls (or, for util/io,
// whose calls the timing Io decorator sees).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

namespace perfbench {

inline constexpr char kLayerParser[] = "core/parser";
inline constexpr char kLayerTypecheck[] = "core/typecheck";
inline constexpr char kLayerMagic[] = "core/magic";
inline constexpr char kLayerEval[] = "core/eval";
inline constexpr char kLayerAlgresBackend[] = "core/algres_backend";
inline constexpr char kLayerDatalog[] = "datalog";
inline constexpr char kLayerStorage[] = "storage";
inline constexpr char kLayerIo[] = "util/io";

struct LayerName {
  const char* layer;   // span category (the repository module)
  const char* metric;  // its form in metric names
};

inline constexpr LayerName kLayers[] = {
    {kLayerParser, "core_parser"},
    {kLayerTypecheck, "core_typecheck"},
    {kLayerMagic, "core_magic"},
    {kLayerEval, "core_eval"},
    {kLayerAlgresBackend, "core_algres_backend"},
    {kLayerDatalog, "datalog"},
    {kLayerStorage, "storage"},
    {kLayerIo, "util_io"},
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
