namespace streamsc {
inline CounterId Passes() {
  static const CounterId id = CounterId::Counter("engine.passes");
  return id;
}
}  // namespace streamsc
