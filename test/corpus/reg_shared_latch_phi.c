// regression: two loop-header phis sharing one latch operand used to
// miscompile — copy propagation of `s3 = s1;` left the phis of s1 and
// s3 carrying the same register around the back edge; the SPT transform
// coalesced both phis onto that register (its definition moved
// pre-fork), so SSA destruction wrote both initial values into it and
// the later one won: s1 started at 2 instead of 4 and the SPT build
// printed 9 where the reference prints 15.
// found by: sptc fuzz --seed 49181 --index 2615 --count 1, shrunk by the fuzzer
int a1[19];

void main() {
  int s1 = 4;
  int s2 = 7;
  int s3 = 2;
  for (int i1 = 0; (i1 < 15); i1 = (i1 + 1)) {
    s1 = (s1 ^ ((3 | 8) | 9));
    a1[((i1 + 18) % 19)] = i1;
    s3 = s1;
  }
  print_int(s3);
}
