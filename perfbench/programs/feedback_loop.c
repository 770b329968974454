/* A workload built to make the static cost model mispredict — the
 * profile-guided feedback demo (sptc adapt / --profile-in).
 *
 * Two conditional stores into the region `carry` each fire on 1/8 of
 * the iterations, so the compiler prices each violation candidate at
 * p = 0.125 and selects the loop (predicted misspeculation cost just
 * under the 0.12 * body threshold).  At run time both cells are read
 * by EVERY iteration, so the region as a whole goes stale on ~2/8 of
 * the speculative tasks: the observed per-region kill rate is about
 * twice the per-candidate prediction.  Feeding that telemetry back
 * (sptc adapt, or run --feedback-out then compile --profile-in)
 * lifts both candidates to the observed rate, the corrected cost
 * crosses the threshold, and the recompile rejects the loop — after
 * which the misspeculation disappears.
 *
 *   dune exec bin/sptc.exe -- adapt examples/src/feedback_loop.c
 */
int n = 4000;
int data[4096];
int outa[4096];
int outb[4096];
int outc[4096];
int carry[4];
int checksum;

void main() {
  int i;
  srand(41);
  for (i = 0; i < 4096; i = i + 1) { data[i] = rand() & 1023; }
  carry[0] = 3;
  carry[1] = 5;
  carry[2] = 7;
  for (i = 0; i < n; i = i + 1) {
    /* chain A: reads carry[0] on every iteration */
    int a0 = carry[0];
    int a1 = data[i] + a0;
    int a2 = a1 * 3 + (a1 >> 2);
    int a3 = a2 * 5 + (a2 & 255);
    int a4 = a3 % 97 + (a3 >> 3);
    int a5 = a4 * 7 + (a4 & 63);
    int a6 = a5 * 3 + (a5 >> 2) + (a4 & 31);
    outa[i] = a6;
    if ((i & 7) == 0) {
      carry[0] = (a6 & 15) + 1;   /* rare store, long closure */
    }
    /* chain B: reads carry[1] on every iteration */
    int b0 = carry[1];
    int b1 = data[(i + 9) & 4095] + b0;
    int b2 = b1 * 3 + (b1 >> 1);
    int b3 = b2 * 5 + (b2 & 127);
    int b4 = b3 % 89 + (b3 >> 4);
    int b5 = b4 * 7 + (b4 & 95);
    int b6 = b5 * 3 + (b5 >> 3) + (b4 & 7);
    outb[i] = b6;
    if ((i & 7) == 2) {
      carry[1] = (b6 & 31) + 2;   /* second rare store, same region */
    }
    /* chain C: reads carry[2] on every iteration */
    int c0 = carry[2];
    int c1 = data[(i + 17) & 4095] + c0;
    int c2 = c1 * 3 + (c1 >> 2);
    int c3 = c2 * 5 + (c2 & 63);
    int c4 = c3 % 83 + (c3 >> 5);
    int c5 = c4 * 7 + (c4 & 47);
    int c6 = c5 * 3 + (c5 >> 1) + (c4 & 3);
    outc[i] = c6;
    if ((i & 7) == 4) {
      carry[2] = (c6 & 63) + 3;   /* third rare store, same region */
    }
  }
  checksum = carry[0] + carry[1] + carry[2] + outa[7] + outb[n - 1] + outc[11];
  print_int(checksum);
}
