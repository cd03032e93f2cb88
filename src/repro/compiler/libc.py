'''The MiniC standard library, written in MiniC itself.

Plays the role of wasi-libc + musl's libm in the paper's toolchain.
Every program is compiled as if this text stood in front of it, like a
statically linked libc: :data:`LIBC_PRELUDE` splits the text once per
process for each value of the defines it uses, and a compile parses
only the declarations the program reaches.  The code generator's reachability pass then keeps only what
the program calls, so module sizes stay honest.

Contents: the WASI extern declarations, a free-list malloc on top of
``memory.grow``, mem*/str* routines, buffered stdout with typed print
helpers (MiniC has no varargs, so no printf), file I/O wrappers over
WASI, a deterministic LCG ``rand``, ``qsort`` (exercising function
pointers / ``call_indirect``), and a polynomial libm (exp, log, pow,
sin, cos, tan, atan, atan2, fmod, ...) in the style of musl.
'''

from ..minic.prelude import Prelude

LIBC_WASI_DECLS = r"""
extern int __wasi_fd_write(int fd, int iovs, int iovs_len, int nwritten);
extern int __wasi_fd_read(int fd, int iovs, int iovs_len, int nread);
extern int __wasi_fd_close(int fd);
extern int __wasi_fd_seek(int fd, long offset, int whence, int newoffset);
extern int __wasi_path_open(int dirfd, int dirflags, int path_ptr,
                            int path_len, int oflags, long rights_base,
                            long rights_inherit, int fdflags,
                            int opened_fd_ptr);
extern int __wasi_fd_pread(int fd, int iovs, int iovs_len, long offset,
                           int nread);
extern int __wasi_fd_pwrite(int fd, int iovs, int iovs_len, long offset,
                            int nwritten);
extern int __wasi_fd_fdstat_get(int fd, int stat_ptr);
extern int __wasi_fd_readdir(int fd, int buf, int buf_len, long cookie,
                             int bufused);
extern int __wasi_path_filestat_get(int dirfd, int flags, int path_ptr,
                                    int path_len, int stat_ptr);
extern int __wasi_path_unlink_file(int dirfd, int path_ptr, int path_len);
extern int __wasi_path_rename(int old_dirfd, int old_ptr, int old_len,
                              int new_dirfd, int new_ptr, int new_len);
extern int __wasi_args_sizes_get(int argc_ptr, int buf_size_ptr);
extern int __wasi_args_get(int argv_ptr, int argv_buf);
extern int __wasi_environ_sizes_get(int count_ptr, int buf_size_ptr);
extern int __wasi_environ_get(int environ_ptr, int environ_buf);
extern int __wasi_clock_time_get(int clock_id, long precision, int time_ptr);
extern int __wasi_random_get(int buf, int buf_len);
extern void __wasi_proc_exit(int code);
"""

LIBC_MEMORY = r"""
/* ---- heap: first-fit free list over memory.grow ---------------------- */

int __heap_ptr = 0;
int __heap_end = 0;
int __free_list = 0;
int __malloc_recycled = 0;

void __libc_init(void) {
    __heap_ptr = __builtin_heap_base();
    __heap_end = __builtin_memory_size() * 65536;
    __free_list = 0;
}

static int __heap_expand(int need) {
    int pages = (need + 65535) / 65536 + 1;
    int got = __builtin_memory_grow(pages);
    if (got < 0) {
        return 0;
    }
    __heap_end = __builtin_memory_size() * 65536;
    return 1;
}

void *malloc(unsigned int size) {
    int *prev;
    int *block;
    int need;
    int bsize;
    if (size == 0) {
        size = 1;
    }
    need = (int)((size + 7u) & ~7u) + 8;
    /* first-fit search of the free list */
    prev = (int *)0;
    block = (int *)__free_list;
    while (block) {
        bsize = block[0];
        if (bsize >= need) {
            if (bsize - need >= 16) {
                /* split */
                int *rest = (int *)((char *)block + need);
                rest[0] = bsize - need;
                rest[1] = block[1];
                block[0] = need;
                if (prev) {
                    prev[1] = (int)rest;
                } else {
                    __free_list = (int)rest;
                }
            } else {
                if (prev) {
                    prev[1] = block[1];
                } else {
                    __free_list = block[1];
                }
            }
            __malloc_recycled = 1;
            return (void *)((char *)block + 8);
        }
        prev = block;
        block = (int *)block[1];
    }
    /* bump allocation */
    if (__heap_ptr + need > __heap_end) {
        if (!__heap_expand(__heap_ptr + need - __heap_end)) {
            return (void *)0;
        }
    }
    block = (int *)__heap_ptr;
    block[0] = need;
    __heap_ptr = __heap_ptr + need;
    __malloc_recycled = 0;
    return (void *)((char *)block + 8);
}

void free(void *ptr) {
    int *block;
    if (!ptr) {
        return;
    }
    block = (int *)((char *)ptr - 8);
    block[1] = __free_list;
    __free_list = (int)block;
}

void *memset(void *dst, int value, unsigned int n) {
    char *d = (char *)dst;
    unsigned int i = 0;
    long v8;
    unsigned char b = (unsigned char)value;
    /* 8-byte-wide fill for aligned bulk */
    v8 = (long)b | ((long)b << 8) | ((long)b << 16) | ((long)b << 24);
    v8 = v8 | (v8 << 32);
    while ((((int)d + (int)i) & 7) && i < n) {
        d[i] = (char)value;
        i++;
    }
    while (i + 8 <= n) {
        *(long *)(d + i) = v8;
        i += 8;
    }
    while (i < n) {
        d[i] = (char)value;
        i++;
    }
    return dst;
}

void *calloc(unsigned int count, unsigned int size) {
    unsigned int total = count * size;
    void *p = malloc(total);
    if (!p) {
        return p;
    }
    if (__malloc_recycled) {
        /* Recycled heap really is dirty: both targets must clear it. */
        memset(p, 0, total);
    } else if (TARGET_NATIVE) {
        /* Fresh native pages are already demand-zero from the kernel,
           so (like glibc's mmap-backed calloc) there is no userspace
           clear — but the allocator's first touch faults in every page,
           making the whole block resident.  Wasm linear memory stays
           lazily grown.  This is the asymmetry behind the paper's
           whitedb observation that Wasm runtimes can show *less*
           resident memory than native. */
        char *d = (char *)p;
        unsigned int off = 0;
        while (off < total) {
            d[off] = 0;
            off += 4096u;
        }
    }
    return p;
}

void *memcpy(void *dst, void *src, unsigned int n) {
    char *d = (char *)dst;
    char *s = (char *)src;
    unsigned int i = 0;
    if ((((int)d | (int)s) & 7) == 0) {
        while (i + 8 <= n) {
            *(long *)(d + i) = *(long *)(s + i);
            i += 8;
        }
    }
    while (i < n) {
        d[i] = s[i];
        i++;
    }
    return dst;
}

void *memmove(void *dst, void *src, unsigned int n) {
    char *d = (char *)dst;
    char *s = (char *)src;
    unsigned int i;
    if ((unsigned int)d < (unsigned int)s) {
        return memcpy(dst, src, n);
    }
    i = n;
    while (i > 0) {
        i--;
        d[i] = s[i];
    }
    return dst;
}

int memcmp(void *a, void *b, unsigned int n) {
    unsigned char *pa = (unsigned char *)a;
    unsigned char *pb = (unsigned char *)b;
    unsigned int i = 0;
    while (i < n) {
        if (pa[i] != pb[i]) {
            return (int)pa[i] - (int)pb[i];
        }
        i++;
    }
    return 0;
}
"""

LIBC_STRING = r"""
unsigned int strlen(char *s) {
    unsigned int n = 0;
    while (s[n]) {
        n++;
    }
    return n;
}

int strcmp(char *a, char *b) {
    unsigned int i = 0;
    while (a[i] && a[i] == b[i]) {
        i++;
    }
    return (int)(unsigned char)a[i] - (int)(unsigned char)b[i];
}

int strncmp(char *a, char *b, unsigned int n) {
    unsigned int i = 0;
    if (n == 0) {
        return 0;
    }
    while (i + 1 < n && a[i] && a[i] == b[i]) {
        i++;
    }
    return (int)(unsigned char)a[i] - (int)(unsigned char)b[i];
}

char *strcpy(char *dst, char *src) {
    unsigned int i = 0;
    while (src[i]) {
        dst[i] = src[i];
        i++;
    }
    dst[i] = 0;
    return dst;
}

char *strncpy(char *dst, char *src, unsigned int n) {
    unsigned int i = 0;
    while (i < n && src[i]) {
        dst[i] = src[i];
        i++;
    }
    while (i < n) {
        dst[i] = 0;
        i++;
    }
    return dst;
}

char *strcat(char *dst, char *src) {
    strcpy(dst + strlen(dst), src);
    return dst;
}

char *strchr(char *s, int c) {
    while (*s) {
        if (*s == (char)c) {
            return s;
        }
        s++;
    }
    if (c == 0) {
        return s;
    }
    return (char *)0;
}

int atoi(char *s) {
    int sign = 1;
    int value = 0;
    while (*s == ' ' || *s == 9) {
        s++;
    }
    if (*s == '-') {
        sign = -1;
        s++;
    } else if (*s == '+') {
        s++;
    }
    while (*s >= '0' && *s <= '9') {
        value = value * 10 + (*s - '0');
        s++;
    }
    return sign * value;
}
"""

LIBC_STDIO = r"""
/* ---- buffered stdout + typed print helpers --------------------------- */

char __stdout_buf[1024];
int __stdout_len = 0;
int __iov_scratch[4];

static void __fd_write_all(int fd, char *data, int len) {
    __iov_scratch[0] = (int)data;
    __iov_scratch[1] = len;
    __wasi_fd_write(fd, (int)__iov_scratch, 1, (int)&__iov_scratch[2]);
}

void fflush_stdout(void) {
    if (__stdout_len > 0) {
        __fd_write_all(1, __stdout_buf, __stdout_len);
        __stdout_len = 0;
    }
}

void __libc_shutdown(void) {
    fflush_stdout();
}

int putchar(int c) {
    __stdout_buf[__stdout_len] = (char)c;
    __stdout_len++;
    if (__stdout_len == 1024) {
        fflush_stdout();
    }
    return c;
}

void print_s(char *s) {
    while (*s) {
        putchar(*s);
        s++;
    }
}

void print_nl(void) {
    putchar(10);
}

int puts(char *s) {
    print_s(s);
    print_nl();
    return 0;
}

void print_l(long value) {
    char digits[24];
    int n = 0;
    unsigned long u;
    if (value < 0) {
        putchar('-');
        u = (unsigned long)(-value);
    } else {
        u = (unsigned long)value;
    }
    if (u == 0) {
        putchar('0');
        return;
    }
    while (u > 0u) {
        digits[n] = (char)('0' + (int)(u % 10u));
        u = u / 10u;
        n++;
    }
    while (n > 0) {
        n--;
        putchar(digits[n]);
    }
}

void print_i(int value) {
    print_l((long)value);
}

void print_u(unsigned int value) {
    print_l((long)value);
}

void print_x(unsigned int value) {
    char digits[12];
    int n = 0;
    if (value == 0) {
        putchar('0');
        return;
    }
    while (value > 0u) {
        int d = (int)(value & 15u);
        if (d < 10) {
            digits[n] = (char)('0' + d);
        } else {
            digits[n] = (char)('a' + d - 10);
        }
        value = value >> 4;
        n++;
    }
    while (n > 0) {
        n--;
        putchar(digits[n]);
    }
}

void print_lx(unsigned long value) {
    char digits[20];
    int n = 0;
    if (value == 0ul) {
        putchar('0');
        return;
    }
    while (value > 0ul) {
        int d = (int)(value & 15ul);
        if (d < 10) {
            digits[n] = (char)('0' + d);
        } else {
            digits[n] = (char)('a' + d - 10);
        }
        value = value >> 4;
        n++;
    }
    while (n > 0) {
        n--;
        putchar(digits[n]);
    }
}

/* prints with 6 decimal places, enough for stable checksums */
void print_f(double value) {
    long ip;
    double frac;
    int i;
    if (value != value) {
        print_s("nan");
        return;
    }
    if (value < 0.0) {
        putchar('-');
        value = -value;
    }
    if (value > 9.0e15) {
        print_s("big");
        return;
    }
    ip = (long)value;
    print_l(ip);
    putchar('.');
    frac = value - (double)ip;
    for (i = 0; i < 6; i++) {
        int digit;
        frac = frac * 10.0;
        digit = (int)frac;
        putchar('0' + digit);
        frac = frac - (double)digit;
    }
}

void exit(int code) {
    __libc_shutdown();
    __wasi_proc_exit(code);
}

/* ---- file I/O over WASI ------------------------------------------------- */

int open_read(char *path) {
    int fd_out[1];
    int err = __wasi_path_open(3, 0, (int)path, (int)strlen(path),
                               0, 0l, 0l, 0, (int)fd_out);
    if (err != 0) {
        return -1;
    }
    return fd_out[0];
}

int open_write(char *path) {
    int fd_out[1];
    /* O_CREAT | O_TRUNC */
    int err = __wasi_path_open(3, 0, (int)path, (int)strlen(path),
                               1 | 8, 0l, 0l, 0, (int)fd_out);
    if (err != 0) {
        return -1;
    }
    return fd_out[0];
}

int read_bytes(int fd, char *buf, int len) {
    int iov[3];
    iov[0] = (int)buf;
    iov[1] = len;
    if (__wasi_fd_read(fd, (int)iov, 1, (int)&iov[2]) != 0) {
        return -1;
    }
    return iov[2];
}

int write_bytes(int fd, char *buf, int len) {
    int iov[3];
    iov[0] = (int)buf;
    iov[1] = len;
    if (__wasi_fd_write(fd, (int)iov, 1, (int)&iov[2]) != 0) {
        return -1;
    }
    return iov[2];
}

int close_fd(int fd) {
    return __wasi_fd_close(fd);
}

long seek_fd(int fd, long offset, int whence) {
    long out[1];
    if (__wasi_fd_seek(fd, offset, whence, (int)out) != 0) {
        return -1l;
    }
    return out[0];
}

long time_ns(void) {
    long out[1];
    __wasi_clock_time_get(1, 0l, (int)out);
    return out[0];
}

int open_dir(char *path) {
    int fd_out[1];
    /* O_DIRECTORY */
    int err = __wasi_path_open(3, 0, (int)path, (int)strlen(path),
                               2, 0l, 0l, 0, (int)fd_out);
    if (err != 0) {
        return -1;
    }
    return fd_out[0];
}

int read_dir(int fd, char *buf, int len, long cookie) {
    int used[1];
    if (__wasi_fd_readdir(fd, (int)buf, len, cookie, (int)used) != 0) {
        return -1;
    }
    return used[0];
}

int pread_bytes(int fd, char *buf, int len, long offset) {
    int iov[3];
    iov[0] = (int)buf;
    iov[1] = len;
    if (__wasi_fd_pread(fd, (int)iov, 1, offset, (int)&iov[2]) != 0) {
        return -1;
    }
    return iov[2];
}

int pwrite_bytes(int fd, char *buf, int len, long offset) {
    int iov[3];
    iov[0] = (int)buf;
    iov[1] = len;
    if (__wasi_fd_pwrite(fd, (int)iov, 1, offset, (int)&iov[2]) != 0) {
        return -1;
    }
    return iov[2];
}

/* filestat: size lives at byte 32, filetype at byte 16 (preview1). */
long stat_size(char *path) {
    long st[8];
    if (__wasi_path_filestat_get(3, 0, (int)path, (int)strlen(path),
                                 (int)st) != 0) {
        return -1l;
    }
    return st[4];
}

int stat_type(char *path) {
    char st[64];
    if (__wasi_path_filestat_get(3, 0, (int)path, (int)strlen(path),
                                 (int)st) != 0) {
        return -1;
    }
    return (int)st[16];
}

int fd_type(int fd) {
    char st[24];
    if (__wasi_fd_fdstat_get(fd, (int)st) != 0) {
        return -1;
    }
    return (int)st[0];
}

int unlink_file(char *path) {
    return __wasi_path_unlink_file(3, (int)path, (int)strlen(path));
}

int rename_file(char *old_path, char *new_path) {
    return __wasi_path_rename(3, (int)old_path, (int)strlen(old_path),
                              3, (int)new_path, (int)strlen(new_path));
}

int random_bytes(char *buf, int len) {
    if (__wasi_random_get((int)buf, len) != 0) {
        return -1;
    }
    return len;
}
"""

LIBC_STDLIB = r"""
int __rand_seed = 12345;

void srand(int seed) {
    __rand_seed = seed;
}

int rand(void) {
    __rand_seed = __rand_seed * 1103515245 + 12345;
    return (__rand_seed >> 16) & 32767;
}

int abs(int v) {
    if (v < 0) {
        return -v;
    }
    return v;
}

long labs(long v) {
    if (v < 0l) {
        return -v;
    }
    return v;
}

/* ---- qsort: median-of-three quicksort with insertion-sort leaves.
   Exercises indirect calls through the comparison function pointer. */

char __qsort_tmp[256];

static void __qswap(char *a, char *b, unsigned int size) {
    memcpy(__qsort_tmp, a, size);
    memcpy(a, b, size);
    memcpy(b, __qsort_tmp, size);
}

static void __qsort_range(char *base, int lo, int hi, unsigned int size,
                          int (*cmp)(void *, void *)) {
    while (lo < hi) {
        if (hi - lo < 8) {
            int i;
            for (i = lo + 1; i <= hi; i++) {
                int j = i;
                while (j > lo &&
                       cmp((void *)(base + j * size),
                           (void *)(base + (j - 1) * size)) < 0) {
                    __qswap(base + j * size, base + (j - 1) * size, size);
                    j--;
                }
            }
            return;
        }
        {
            int mid = lo + (hi - lo) / 2;
            int i = lo;
            int j = hi;
            if (cmp((void *)(base + mid * size),
                    (void *)(base + lo * size)) < 0) {
                __qswap(base + mid * size, base + lo * size, size);
            }
            if (cmp((void *)(base + hi * size),
                    (void *)(base + lo * size)) < 0) {
                __qswap(base + hi * size, base + lo * size, size);
            }
            if (cmp((void *)(base + hi * size),
                    (void *)(base + mid * size)) < 0) {
                __qswap(base + hi * size, base + mid * size, size);
            }
            __qswap(base + mid * size, base + (lo + 1) * size, size);
            i = lo + 1;
            while (1) {
                i++;
                while (i <= hi &&
                       cmp((void *)(base + i * size),
                           (void *)(base + (lo + 1) * size)) < 0) {
                    i++;
                }
                j--;
                while (cmp((void *)(base + (lo + 1) * size),
                           (void *)(base + j * size)) < 0) {
                    j--;
                }
                if (i > j) {
                    break;
                }
                __qswap(base + i * size, base + j * size, size);
            }
            __qswap(base + (lo + 1) * size, base + j * size, size);
            if (j - lo < hi - j) {
                __qsort_range(base, lo, j - 1, size, cmp);
                lo = j + 1;
            } else {
                __qsort_range(base, j + 1, hi, size, cmp);
                hi = j - 1;
            }
        }
    }
}

void qsort(void *base, unsigned int count, unsigned int size,
           int (*cmp)(void *, void *)) {
    if (count > 1u) {
        __qsort_range((char *)base, 0, (int)count - 1, size, cmp);
    }
}
"""

LIBC_MATH = r"""
/* ---- libm: polynomial implementations in the style of musl ------------- */

double sqrt(double x) {
    return __builtin_sqrt(x);
}

double fabs(double x) {
    return __builtin_fabs(x);
}

double floor(double x) {
    return __builtin_floor(x);
}

double ceil(double x) {
    return __builtin_ceil(x);
}

double trunc(double x) {
    return __builtin_trunc(x);
}

double fmod(double a, double b) {
    if (b == 0.0) {
        return 0.0;
    }
    return a - __builtin_trunc(a / b) * b;
}

static double __ldexp_pos(double m, int k) {
    while (k >= 30) {
        m = m * 1073741824.0;
        k -= 30;
    }
    while (k > 0) {
        m = m * 2.0;
        k--;
    }
    return m;
}

static double __ldexp_neg(double m, int k) {
    while (k >= 30) {
        m = m / 1073741824.0;
        k -= 30;
    }
    while (k > 0) {
        m = m / 2.0;
        k--;
    }
    return m;
}

double ldexp(double m, int k) {
    if (k >= 0) {
        return __ldexp_pos(m, k);
    }
    return __ldexp_neg(m, -k);
}

double exp(double x) {
    double r;
    double r2;
    double p;
    int k;
    if (x > 709.0) {
        return 8.9e307 * 8.9e307; /* overflow to inf */
    }
    if (x < -745.0) {
        return 0.0;
    }
    /* x = k*ln2 + r,  |r| <= ln2/2 */
    k = (int)__builtin_nearest(x * 1.4426950408889634);
    r = x - (double)k * 0.6931471805599453;
    /* degree-10 Taylor of e^r (|r| < 0.35 converges fast) */
    r2 = r * r;
    p = 1.0 + r + r2 * (0.5 + r * 0.16666666666666666
        + r2 * (0.041666666666666664 + r * 0.008333333333333333
        + r2 * (0.001388888888888889 + r * 0.0001984126984126984
        + r2 * (0.0000248015873015873 + r * 0.0000027557319223985893))));
    return ldexp(p, k);
}

double log(double x) {
    int k = 0;
    double t;
    double t2;
    double series;
    if (x <= 0.0) {
        return -8.9e307 * 8.9e307; /* -inf for log(0), nan-ish otherwise */
    }
    /* normalize x into [0.75, 1.5) */
    while (x >= 1.5) {
        x = x * 0.5;
        k++;
    }
    while (x < 0.75) {
        x = x * 2.0;
        k--;
    }
    /* ln(x) = 2 atanh((x-1)/(x+1)) */
    t = (x - 1.0) / (x + 1.0);
    t2 = t * t;
    series = t * (2.0 + t2 * (0.6666666666666666 + t2 * (0.4
        + t2 * (0.2857142857142857 + t2 * (0.2222222222222222
        + t2 * (0.18181818181818182 + t2 * 0.15384615384615385))))));
    return series + (double)k * 0.6931471805599453;
}

double log2(double x) {
    return log(x) * 1.4426950408889634;
}

double log10(double x) {
    return log(x) * 0.4342944819032518;
}

double pow(double base, double exponent) {
    int ie;
    if (exponent == 0.0) {
        return 1.0;
    }
    if (base == 0.0) {
        return 0.0;
    }
    ie = (int)exponent;
    if ((double)ie == exponent && ie > -64 && ie < 64) {
        /* integer fast path: exponentiation by squaring */
        double result = 1.0;
        double acc = base;
        int n = ie;
        if (n < 0) {
            n = -n;
        }
        while (n) {
            if (n & 1) {
                result = result * acc;
            }
            acc = acc * acc;
            n = n >> 1;
        }
        if (ie < 0) {
            return 1.0 / result;
        }
        return result;
    }
    if (base < 0.0) {
        return 0.0; /* domain error -> 0 (benchmarks avoid this) */
    }
    return exp(exponent * log(base));
}

static double __sin_poly(double r) {
    /* Taylor about 0, |r| <= pi/2 + eps */
    double r2 = r * r;
    return r * (1.0 + r2 * (-0.16666666666666666
        + r2 * (0.008333333333333333 + r2 * (-0.0001984126984126984
        + r2 * (0.0000027557319223985893
        + r2 * (-0.000000025052108385441720
        + r2 * 0.00000000016059043836821613))))));
}

double sin(double x) {
    double two_pi = 6.283185307179586;
    double k;
    /* reduce to [-pi, pi] */
    k = __builtin_nearest(x / two_pi);
    x = x - k * two_pi;
    if (x > 3.141592653589793) {
        x = x - two_pi;
    }
    if (x < -3.141592653589793) {
        x = x + two_pi;
    }
    /* fold into [-pi/2, pi/2] */
    if (x > 1.5707963267948966) {
        x = 3.141592653589793 - x;
    } else if (x < -1.5707963267948966) {
        x = -3.141592653589793 - x;
    }
    return __sin_poly(x);
}

double cos(double x) {
    return sin(x + 1.5707963267948966);
}

double tan(double x) {
    double c = cos(x);
    if (c == 0.0) {
        return 8.9e307;
    }
    return sin(x) / c;
}

static double __atan_small(double x) {
    /* Taylor for |x| < ~0.27 after three half-angle reductions */
    double x2 = x * x;
    return x * (1.0 + x2 * (-0.3333333333333333 + x2 * (0.2
        + x2 * (-0.14285714285714285 + x2 * (0.1111111111111111
        + x2 * (-0.09090909090909091 + x2 * 0.07692307692307693))))));
}

double atan(double x) {
    double sign = 1.0;
    int i;
    if (x < 0.0) {
        sign = -1.0;
        x = -x;
    }
    /* atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))), applied 3 times */
    for (i = 0; i < 3; i++) {
        x = x / (1.0 + __builtin_sqrt(1.0 + x * x));
    }
    return sign * 8.0 * __atan_small(x);
}

double atan2(double y, double x) {
    double pi = 3.141592653589793;
    if (x > 0.0) {
        return atan(y / x);
    }
    if (x < 0.0) {
        if (y >= 0.0) {
            return atan(y / x) + pi;
        }
        return atan(y / x) - pi;
    }
    if (y > 0.0) {
        return pi / 2.0;
    }
    if (y < 0.0) {
        return -(pi / 2.0);
    }
    return 0.0;
}

double asin(double x) {
    if (x >= 1.0) {
        return 1.5707963267948966;
    }
    if (x <= -1.0) {
        return -1.5707963267948966;
    }
    return atan(x / __builtin_sqrt(1.0 - x * x));
}

double acos(double x) {
    return 1.5707963267948966 - asin(x);
}

double tanh(double x) {
    double e2;
    if (x > 20.0) {
        return 1.0;
    }
    if (x < -20.0) {
        return -1.0;
    }
    e2 = exp(2.0 * x);
    return (e2 - 1.0) / (e2 + 1.0);
}

double sigmoid(double x) {
    return 1.0 / (1.0 + exp(-x));
}

double cbrt(double x) {
    double guess;
    double sign = 1.0;
    int i;
    if (x == 0.0) {
        return 0.0;
    }
    if (x < 0.0) {
        sign = -1.0;
        x = -x;
    }
    guess = exp(log(x) / 3.0);
    /* two Newton steps to polish */
    for (i = 0; i < 2; i++) {
        guess = (2.0 * guess + x / (guess * guess)) / 3.0;
    }
    return sign * guess;
}
"""

LIBC_SOURCE = (LIBC_WASI_DECLS + LIBC_MEMORY + LIBC_STRING + LIBC_STDIO +
               LIBC_STDLIB + LIBC_MATH)

#: The libc as the frontend sees it.  ``_start`` calls the two hooks, so
#: every program reaches them.
LIBC_PRELUDE = Prelude(LIBC_SOURCE, roots=("__libc_init", "__libc_shutdown"))
