// Fixture: allocation, I/O and throw inside a SHFLBW_HOT region.
void Kernel(std::vector<float>& v) {
  SHFLBW_HOT_BEGIN;
  v.push_back(1.0f);
  float* p = new float[8];
  fread(buf, 1, 8, file);
  if (!p) throw 1;
  SHFLBW_HOT_END;
}
