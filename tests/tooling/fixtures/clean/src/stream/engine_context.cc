// The one file that interns the engine.* names.
namespace streamsc {
inline CounterId Passes() {
  static const CounterId id = CounterId::Counter("engine.passes");
  return id;
}
}  // namespace streamsc
