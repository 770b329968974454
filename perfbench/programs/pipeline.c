int n = 6000;
int a[6000];
int b[6000];
void main() {
  int i;
  for (i = 0; i < n; i = i + 1) { a[i] = i * 7 + 3; }
  for (i = 0; i < n; i = i + 1) {
    int x = a[i];
    int acc = 0;
    int j;
    for (j = 0; j < 48; j = j + 1) {
      acc = acc + (((x + j) * (x - j)) & 255);
    }
    b[i] = acc;
  }
  print_int(b[0] + b[1234] + b[5999]);
}
