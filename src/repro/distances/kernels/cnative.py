"""C translations of the batch DP sweeps and of the run-extension
column sweeps, compiled at first use.

The five exact kernels and four banded kernels below are line-for-line
translations of the numpy sweeps in :mod:`repro.distances.batch`, the
six run kernels of the column steps in :mod:`.runs`; all are compiled
once with the host C compiler (``cc``/``gcc``; override with
``REPRO_KERNEL_CC``) into a shared object that is cached on disk keyed
by a hash of the source, and called through :mod:`ctypes` (which
releases the GIL for the duration of each call — the thread execution
backend scales on these kernels).

Bit-identity is preserved by construction: DTW and ERP replicate the
min-plus prefix scan *per element* (including the ``cand - prefix``
then ``+ prefix`` round trip and numpy's nan-propagating ``minimum``),
Frechet performs only min/max selections, and EDR/LCSS are integer
DPs whose final division matches numpy's ``int64`` true divide.  The
source is compiled with ``-ffp-contract=off`` and no fast-math flags
so no FMA contraction or reassociation can occur.

Compilation failures (no compiler, sandboxed tmpdir, ...) make
:func:`available` return False — silently, so ``"auto"`` resolution
falls back to the numpy kernels with no warning spam.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

__all__ = ["available", "cache_dir",
           "dtw_exact", "frechet_exact", "erp_exact", "edr_exact",
           "lcss_exact", "dtw_banded", "frechet_banded", "edr_banded",
           "lcss_banded", "hausdorff_run", "frechet_run", "dtw_run",
           "erp_run", "edr_run", "lcss_run"]

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_SOURCE = r"""
#include <math.h>
#include <stdlib.h>

#define INF (1.0 / 0.0)

/* np.minimum / np.maximum: propagate nan, otherwise select. */
static double nmin(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return b < a ? b : a;
}

static double nmax(double a, double b) {
    if (a != a) return a;
    if (b != b) return b;
    return b > a ? b : a;
}

/* Exact DTW: the batch row sweep's min-plus prefix scan, element by
   element (cand = min(diag, up) + cost; t = cand - prefix;
   runmin = min(runmin, t); new = runmin + prefix). */
void dtw_exact(const double *dm, long long cc, long long m,
               long long width, const long long *lengths, double dk,
               double *out, unsigned char *exact) {
    double *row = (double *)malloc((size_t)width * sizeof(double));
    int check = isfinite(dk);
    for (long long c = 0; c < cc; c++) {
        const double *D = dm + c * m * width;
        long long n = lengths[c];
        double acc = 0.0;
        for (long long j = 0; j < n; j++) { acc += D[j]; row[j] = acc; }
        int done = 0;
        for (long long i = 1; i < m; i++) {
            const double *costs = D + i * width;
            double prev_up = row[0];
            double prefix = costs[0];
            double t = (row[0] + costs[0]) - prefix;
            double runmin = t;
            double nv = runmin + prefix;
            double rmin = nv;
            row[0] = nv;
            for (long long j = 1; j < n; j++) {
                double up = row[j];
                double cand = nmin(prev_up, up) + costs[j];
                prefix += costs[j];
                t = cand - prefix;
                runmin = nmin(runmin, t);
                nv = runmin + prefix;
                prev_up = up;
                row[j] = nv;
                if (nv < rmin) rmin = nv;
            }
            if (check && i < m - 1 && rmin >= dk) {
                out[c] = rmin; exact[c] = 0; done = 1; break;
            }
        }
        if (!done) { out[c] = row[n - 1]; exact[c] = 1; }
    }
    free(row);
}

/* Exact discrete Frechet: row DP; min/max selections only, so any
   evaluation order is bit-identical to the anti-diagonal sweep. */
void frechet_exact(const double *dm, long long cc, long long m,
                   long long width, const long long *lengths, double dk,
                   double *out, unsigned char *exact) {
    double *row = (double *)malloc((size_t)width * sizeof(double));
    int check = isfinite(dk);
    for (long long c = 0; c < cc; c++) {
        const double *D = dm + c * m * width;
        long long n = lengths[c];
        double run = D[0];
        row[0] = run;
        for (long long j = 1; j < n; j++) {
            run = nmax(run, D[j]);
            row[j] = run;
        }
        int done = 0;
        for (long long i = 1; i < m; i++) {
            const double *costs = D + i * width;
            double prev_diag = row[0];
            double nv = nmax(costs[0], prev_diag);
            row[0] = nv;
            double left = nv;
            double rmin = nv;
            for (long long j = 1; j < n; j++) {
                double up = row[j];
                double best = nmin(prev_diag, nmin(up, left));
                nv = nmax(costs[j], best);
                prev_diag = up;
                left = nv;
                row[j] = nv;
                if (nv < rmin) rmin = nv;
            }
            if (check && i < m - 1 && rmin >= dk) {
                out[c] = rmin; exact[c] = 0; done = 1; break;
            }
        }
        if (!done) { out[c] = row[n - 1]; exact[c] = 1; }
    }
    free(row);
}

/* Exact ERP: the batch row sweep's min-plus prefix scan over the
   gap-mass-anchored table, element by element. */
void erp_exact(const double *dm, const double *ga, const double *gb,
               long long cc, long long m, long long width,
               const long long *lengths, double dk,
               double *out, unsigned char *exact) {
    double *prev = (double *)malloc((size_t)(width + 1) * sizeof(double));
    double *gbp = (double *)malloc((size_t)(width + 1) * sizeof(double));
    int check = isfinite(dk);
    for (long long c = 0; c < cc; c++) {
        const double *D = dm + c * m * width;
        const double *G = gb + c * width;
        long long n = lengths[c];
        gbp[0] = 0.0;
        for (long long j = 1; j <= n; j++) gbp[j] = gbp[j - 1] + G[j - 1];
        for (long long j = 0; j <= n; j++) prev[j] = gbp[j];
        int done = 0;
        for (long long i = 0; i < m; i++) {
            const double *costs = D + i * width;
            double gai = ga[i];
            double prev_left = prev[0];
            double t = (prev[0] + gai) - gbp[0];
            double runmin = t;
            double nv = runmin + gbp[0];
            prev[0] = nv;
            double rmin = nv;
            for (long long j = 1; j <= n; j++) {
                double cand = nmin(prev_left + costs[j - 1],
                                   prev[j] + gai);
                prev_left = prev[j];
                t = cand - gbp[j];
                runmin = nmin(runmin, t);
                nv = runmin + gbp[j];
                prev[j] = nv;
                if (nv < rmin) rmin = nv;
            }
            if (check && i < m - 1 && rmin >= dk) {
                out[c] = rmin; exact[c] = 0; done = 1; break;
            }
        }
        if (!done) { out[c] = prev[n]; exact[c] = 1; }
    }
    free(prev);
    free(gbp);
}

/* Exact EDR: classic integer edit DP (equal to the prefix-scan
   optimum; integer arithmetic, so bit-identical as float64). */
void edr_exact(const unsigned char *match, long long cc, long long m,
               long long width, const long long *lengths, double dk,
               double *out, unsigned char *exact) {
    long long *prev =
        (long long *)malloc((size_t)(width + 1) * sizeof(long long));
    int check = isfinite(dk);
    for (long long c = 0; c < cc; c++) {
        const unsigned char *M = match + c * m * width;
        long long n = lengths[c];
        for (long long j = 0; j <= n; j++) prev[j] = j;
        int done = 0;
        for (long long i = 0; i < m; i++) {
            const unsigned char *row = M + i * width;
            long long diag = prev[0];
            prev[0] = prev[0] + 1;
            long long rmin = prev[0];
            for (long long j = 1; j <= n; j++) {
                long long up = prev[j];
                long long best = diag + (row[j - 1] ? 0 : 1);
                if (up + 1 < best) best = up + 1;
                if (prev[j - 1] + 1 < best) best = prev[j - 1] + 1;
                diag = up;
                prev[j] = best;
                if (best < rmin) rmin = best;
            }
            if (check && i < m - 1 && (double)rmin >= dk) {
                out[c] = (double)rmin; exact[c] = 0; done = 1; break;
            }
        }
        if (!done) { out[c] = (double)prev[n]; exact[c] = 1; }
    }
    free(prev);
}

/* Exact LCSS: classic integer DP; the final division matches numpy's
   int64 true divide bit for bit. */
void lcss_exact(const unsigned char *match, long long cc, long long m,
                long long width, const long long *lengths, double dk,
                double *out, unsigned char *exact) {
    long long *prev =
        (long long *)malloc((size_t)(width + 1) * sizeof(long long));
    int check = isfinite(dk);
    for (long long c = 0; c < cc; c++) {
        const unsigned char *M = match + c * m * width;
        long long n = lengths[c];
        long long mn = m < n ? m : n;
        for (long long j = 0; j <= n; j++) prev[j] = 0;
        int done = 0;
        for (long long i = 0; i < m; i++) {
            const unsigned char *row = M + i * width;
            long long diag = prev[0];
            long long rmax = 0;
            for (long long j = 1; j <= n; j++) {
                long long up = prev[j];
                long long best = up;
                long long d = diag + (row[j - 1] ? 1 : 0);
                if (d > best) best = d;
                if (prev[j - 1] > best) best = prev[j - 1];
                diag = up;
                prev[j] = best;
                if (best > rmax) rmax = best;
            }
            if (check && i < m - 1) {
                double lb = 1.0
                    - (double)(rmax + (m - 1 - i)) / (double)mn;
                if (lb >= dk) {
                    out[c] = lb; exact[c] = 0; done = 1; break;
                }
            }
        }
        if (!done) {
            out[c] = 1.0 - (double)prev[n] / (double)mn;
            exact[c] = 1;
        }
    }
    free(prev);
}

/* Banded DTW: the batch kernel's sliding-window prefix scan, element
   by element (including inf cumsums and nan propagation, which the
   numpy kernel relies on outside each candidate's true width). */
void dtw_banded(const double *dm, long long cc, long long m,
                long long width, const long long *lengths, long long r,
                double *out) {
    long long w = 2 * r + 1;
    long long lo_last = m - 1 - r;
    if (lo_last < 0) lo_last = 0;
    double *win = (double *)malloc((size_t)w * sizeof(double));
    double *mv = (double *)malloc((size_t)w * sizeof(double));
    for (long long c = 0; c < cc; c++) {
        const double *D = dm + c * m * width;
        double acc = 0.0;
        for (long long jj = 0; jj < w; jj++) {
            acc += (jj < width) ? D[jj] : INF;
            win[jj] = acc;
        }
        long long lo_prev = 0;
        for (long long i = 1; i < m; i++) {
            long long lo = i - r;
            if (lo < 0) lo = 0;
            const double *Ci = D + i * width;
            if (lo == lo_prev) {
                mv[0] = win[0];
                for (long long jj = 1; jj < w; jj++)
                    mv[jj] = nmin(win[jj - 1], win[jj]);
            } else {
                mv[w - 1] = win[w - 1];
                for (long long jj = 0; jj < w - 1; jj++)
                    mv[jj] = nmin(win[jj], win[jj + 1]);
            }
            double prefix = 0.0;
            double runmin = 0.0;
            for (long long jj = 0; jj < w; jj++) {
                long long col = lo + jj;
                double cost = (col < width) ? Ci[col] : INF;
                double cand = mv[jj] + cost;
                prefix = (jj == 0) ? cost : prefix + cost;
                double t = cand - prefix;
                runmin = (jj == 0) ? t : nmin(runmin, t);
                win[jj] = runmin + prefix;
            }
            lo_prev = lo;
        }
        out[c] = win[lengths[c] - 1 - lo_last];
    }
    free(win);
    free(mv);
}

/* Banded Frechet: row DP over |i - j| <= r; selections only, so
   bit-identical to the banded anti-diagonal sweep. */
void frechet_banded(const double *dm, long long cc, long long m,
                    long long width, const long long *lengths,
                    long long r, double *out) {
    double *row = (double *)malloc((size_t)width * sizeof(double));
    for (long long c = 0; c < cc; c++) {
        const double *D = dm + c * m * width;
        long long n = lengths[c];
        for (long long j = 0; j < n; j++) row[j] = INF;
        long long hi = r + 1 < n ? r + 1 : n;
        double run = D[0];
        row[0] = run;
        for (long long j = 1; j < hi; j++) {
            run = nmax(run, D[j]);
            row[j] = run;
        }
        for (long long i = 1; i < m; i++) {
            const double *Ci = D + i * width;
            long long lo = i - r;
            if (lo < 0) lo = 0;
            hi = i + r + 1;
            if (hi > n) hi = n;
            double left = INF;
            double prev_diag = lo > 0 ? row[lo - 1] : INF;
            for (long long j = lo; j < hi; j++) {
                double up = row[j];
                double best = nmin(prev_diag, nmin(up, left));
                double nv = nmax(Ci[j], best);
                prev_diag = up;
                left = nv;
                row[j] = nv;
            }
        }
        out[c] = row[n - 1];
    }
    free(row);
}

/* Banded EDR: the reference sliding-window edit DP (integers carried
   in doubles; +inf outside the window). */
void edr_banded(const unsigned char *match, long long cc, long long m,
                long long width, const long long *lengths, long long r,
                double *out) {
    double *prev = (double *)malloc((size_t)(width + 1) * sizeof(double));
    double *cur = (double *)malloc((size_t)(width + 1) * sizeof(double));
    long long w = 2 * r + 1;
    for (long long c = 0; c < cc; c++) {
        const unsigned char *M = match + c * m * width;
        long long n = lengths[c];
        long long hi0 = w < n + 1 ? w : n + 1;
        for (long long j = 0; j <= n; j++)
            prev[j] = (j < hi0) ? (double)j : INF;
        for (long long i = 1; i <= m; i++) {
            long long lo = i - r;
            if (lo < 0) lo = 0;
            long long hi = lo + w - 1;
            if (hi > n) hi = n;
            const unsigned char *row = M + (i - 1) * width;
            for (long long j = 0; j <= n; j++) cur[j] = INF;
            for (long long j = lo; j <= hi; j++) {
                if (j == 0) { cur[0] = prev[0] + 1.0; continue; }
                double best = prev[j - 1] + (row[j - 1] ? 0.0 : 1.0);
                if (prev[j] + 1.0 < best) best = prev[j] + 1.0;
                if (j > lo && cur[j - 1] + 1.0 < best)
                    best = cur[j - 1] + 1.0;
                cur[j] = best;
            }
            double *tmp = prev; prev = cur; cur = tmp;
        }
        out[c] = prev[n];
    }
    free(prev);
    free(cur);
}

/* Banded LCSS: the reference sliding-window integer DP. */
void lcss_banded(const unsigned char *match, long long cc, long long m,
                 long long width, const long long *lengths, long long r,
                 double *out) {
    long long *prev =
        (long long *)malloc((size_t)(width + 1) * sizeof(long long));
    long long *cur =
        (long long *)malloc((size_t)(width + 1) * sizeof(long long));
    long long w = 2 * r + 1;
    for (long long c = 0; c < cc; c++) {
        const unsigned char *M = match + c * m * width;
        long long n = lengths[c];
        long long mn = m < n ? m : n;
        for (long long j = 0; j <= n; j++) prev[j] = 0;
        for (long long i = 1; i <= m; i++) {
            long long lo = i - r;
            if (lo < 0) lo = 0;
            long long hi = lo + w - 1;
            if (hi > n) hi = n;
            const unsigned char *row = M + (i - 1) * width;
            for (long long j = 0; j <= n; j++) cur[j] = 0;
            long long start = lo > 1 ? lo : 1;
            for (long long j = start; j <= hi; j++) {
                long long best = prev[j];
                long long d = prev[j - 1] + (row[j - 1] ? 1 : 0);
                if (d > best) best = d;
                if (j > lo && cur[j - 1] > best) best = cur[j - 1];
                cur[j] = best;
            }
            long long *tmp = prev; prev = cur; cur = tmp;
        }
        out[c] = 1.0 - (double)prev[n] / (double)mn;
    }
    free(prev);
    free(cur);
}

/* ---- Run extension (repro.core.bounds; numpy reference: runs.py) ----
   Each kernel sweeps one bound computer's column DP over the cells of
   a run: `rows` is the per-query table of cell rows (`width` values
   per row), `slots[0..count)` the run's row indices in path order.
   `col` holds the previous column on entry (or nothing when
   `has_prev` is 0) and the column of the last consumed cell on return;
   the sweep stops once a cell's bound reaches `cutoff` and returns
   that cell's bound.  Each step keeps the numpy step's association
   order; Python's two-argument min/max keep the first operand unless
   the second is strictly better, which `<` / `>` reproduce. */

/* np.min of a column (nan-propagating fold). */
static double colmin(const double *col, long long n) {
    double best = col[0];
    for (long long i = 1; i < n; i++) best = nmin(best, col[i]);
    return best;
}

double hausdorff_run(double *r, double *cmax_io, const double *rows,
                     const long long *slots, long long count,
                     long long m, double slack, double cutoff) {
    double cmax = *cmax_io;
    double bound = 0.0;
    for (long long s = 0; s < count; s++) {
        const double *d = rows + slots[s] * m;
        for (long long i = 0; i < m; i++) r[i] = nmin(r[i], d[i]);
        double dmin = colmin(d, m);
        if (dmin > cmax) cmax = dmin;
        bound = cmax - slack;
        if (0.0 > bound) bound = 0.0;
        if (bound >= cutoff) break;
    }
    *cmax_io = cmax;
    return bound;
}

double frechet_run(double *col, long long has_prev, const double *rows,
                   const long long *slots, long long count, long long m,
                   double slack, double cutoff) {
    double bound = 0.0;
    for (long long s = 0; s < count; s++) {
        const double *d = rows + slots[s] * m;
        if (s == 0 && !has_prev) {
            double run = d[0];
            col[0] = run;
            for (long long i = 1; i < m; i++) {
                run = nmax(run, d[i]);
                col[i] = run;
            }
        } else {
            double above = col[0];
            double running = d[0];
            if (above > running) running = above;
            col[0] = running;
            for (long long i = 1; i < m; i++) {
                double here = col[i];
                double best = above;
                if (here < best) best = here;
                if (running < best) best = running;
                running = best > d[i] ? best : d[i];
                above = here;
                col[i] = running;
            }
        }
        bound = colmin(col, m) - slack;
        if (0.0 > bound) bound = 0.0;
        if (bound >= cutoff) break;
    }
    return bound;
}

double dtw_run(double *col, long long has_prev, const double *rows,
               const long long *slots, long long count, long long m,
               double cutoff) {
    double bound = 0.0;
    for (long long s = 0; s < count; s++) {
        const double *d = rows + slots[s] * m;
        if (s == 0 && !has_prev) {
            double acc = d[0];
            col[0] = acc;
            for (long long i = 1; i < m; i++) { acc += d[i]; col[i] = acc; }
        } else {
            double above = col[0];
            double prefix = d[0];
            double runmin = (above + d[0]) - prefix;
            col[0] = prefix + runmin;
            for (long long i = 1; i < m; i++) {
                double here = col[i];
                double cand = nmin(above, here) + d[i];
                prefix += d[i];
                runmin = nmin(runmin, cand - prefix);
                above = here;
                col[i] = prefix + runmin;
            }
        }
        bound = colmin(col, m);
        if (bound >= cutoff) break;
    }
    return bound;
}

/* `col` and `prefix` have m + 1 entries; a row has m + 1 values, the
   last being the gap point's distance to the cell. */
double erp_run(double *col, const double *rows, const long long *slots,
               long long count, long long m, const double *prefix,
               double cutoff) {
    double bound = 0.0;
    for (long long s = 0; s < count; s++) {
        const double *d = rows + slots[s] * (m + 1);
        double gap_cell = d[m];
        double above = col[0];
        double runmin = (above + gap_cell) - prefix[0];
        col[0] = prefix[0] + runmin;
        for (long long i = 1; i <= m; i++) {
            double here = col[i];
            double cand = nmin(above + d[i - 1], here + gap_cell);
            runmin = nmin(runmin, cand - prefix[i]);
            above = here;
            col[i] = prefix[i] + runmin;
        }
        bound = colmin(col, m + 1);
        if (bound >= cutoff) break;
    }
    return bound;
}

double edr_run(double *col, const unsigned char *match,
               const long long *slots, long long count, long long m,
               double cutoff) {
    double bound = 0.0;
    for (long long s = 0; s < count; s++) {
        const unsigned char *hit = match + slots[s] * m;
        double above = col[0];
        double runmin = (above + 1.0) - 0.0;
        col[0] = 0.0 + runmin;
        for (long long i = 1; i <= m; i++) {
            double here = col[i];
            double position = (double)i;
            double cand = nmin(above + (hit[i - 1] ? 0.0 : 1.0),
                               here + 1.0);
            runmin = nmin(runmin, cand - position);
            above = here;
            col[i] = position + runmin;
        }
        bound = colmin(col, m + 1);
        if (bound >= cutoff) break;
    }
    return bound;
}

/* `depth_io` counts the cells consumed so far along the path. */
double lcss_run(double *col, long long *depth_io,
                const unsigned char *match, const long long *slots,
                long long count, long long m, long long max_traj_len,
                double cutoff) {
    long long depth = *depth_io;
    double bound = 0.0;
    for (long long s = 0; s < count; s++) {
        const unsigned char *hit = match + slots[s] * m;
        double above = col[0];
        double run = 0.0;
        col[0] = run;
        for (long long i = 1; i <= m; i++) {
            double here = col[i];
            run = nmax(run, nmax(here, above + (hit[i - 1] ? 1.0 : 0.0)));
            above = here;
            col[i] = run;
        }
        depth += 1;
        long long n_max = max_traj_len > depth ? max_traj_len : depth;
        double denom = (double)(m < n_max ? m : n_max);
        double best = col[m] + (double)(n_max - depth);
        if (denom < best) best = denom;
        bound = 1.0 - best / denom;
        if (0.0 > bound) bound = 0.0;
        if (bound >= cutoff) break;
    }
    *depth_io = depth;
    return bound;
}
"""

_lib = None
_lib_failed = False


def cache_dir() -> str:
    """Directory holding the compiled shared object (override with the
    ``REPRO_KERNEL_CACHE_DIR`` environment variable)."""
    configured = os.environ.get("REPRO_KERNEL_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _compiler() -> str | None:
    configured = os.environ.get("REPRO_KERNEL_CC")
    if configured:
        return configured
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    return None


_I64 = ctypes.c_longlong
_PD = ctypes.POINTER(ctypes.c_double)
_PU8 = ctypes.POINTER(ctypes.c_ubyte)
_PI64 = ctypes.POINTER(_I64)
_PV = ctypes.c_void_p
_F64 = ctypes.c_double

_SIGNATURES = {
    "dtw_exact": [_PD, _I64, _I64, _I64, _PI64, ctypes.c_double,
                  _PD, _PU8],
    "frechet_exact": [_PD, _I64, _I64, _I64, _PI64, ctypes.c_double,
                      _PD, _PU8],
    "erp_exact": [_PD, _PD, _PD, _I64, _I64, _I64, _PI64,
                  ctypes.c_double, _PD, _PU8],
    "edr_exact": [_PU8, _I64, _I64, _I64, _PI64, ctypes.c_double,
                  _PD, _PU8],
    "lcss_exact": [_PU8, _I64, _I64, _I64, _PI64, ctypes.c_double,
                   _PD, _PU8],
    "dtw_banded": [_PD, _I64, _I64, _I64, _PI64, _I64, _PD],
    "frechet_banded": [_PD, _I64, _I64, _I64, _PI64, _I64, _PD],
    "edr_banded": [_PU8, _I64, _I64, _I64, _PI64, _I64, _PD],
    "lcss_banded": [_PU8, _I64, _I64, _I64, _PI64, _I64, _PD],
}

#: The run-extension kernels return the bound and take raw addresses:
#: one call per trie run, so the pointer casts of the stack kernels
#: above would be most of it.
_RUN_SIGNATURES = {
    "hausdorff_run": [_PV, _PV, _PV, _PV, _I64, _I64, _F64, _F64],
    "frechet_run": [_PV, _I64, _PV, _PV, _I64, _I64, _F64, _F64],
    "dtw_run": [_PV, _I64, _PV, _PV, _I64, _I64, _F64],
    "erp_run": [_PV, _PV, _PV, _I64, _I64, _PV, _F64],
    "edr_run": [_PV, _PV, _PV, _I64, _I64, _F64],
    "lcss_run": [_PV, _PV, _PV, _PV, _I64, _I64, _I64, _F64],
}


def _build() -> ctypes.CDLL | None:
    """Compile (if not cached) and load the shared object; None on any
    failure.  The build is race-safe: compile into a private temp dir,
    then ``os.replace`` into the hash-keyed cache path."""
    cc = _compiler()
    if cc is None:
        return None
    tag = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS)).encode()).hexdigest()[:16]
    directory = cache_dir()
    path = os.path.join(directory, f"repro_kernels_{tag}.so")
    try:
        if not os.path.exists(path):
            os.makedirs(directory, exist_ok=True)
            build_dir = tempfile.mkdtemp(dir=directory)
            try:
                src = os.path.join(build_dir, "kernels.c")
                obj = os.path.join(build_dir, "kernels.so")
                with open(src, "w") as handle:
                    handle.write(_SOURCE)
                result = subprocess.run(
                    [cc, *_CFLAGS, src, "-o", obj, "-lm"],
                    capture_output=True, timeout=120)
                if result.returncode != 0:
                    return None
                os.replace(obj, path)
            finally:
                shutil.rmtree(build_dir, ignore_errors=True)
        lib = ctypes.CDLL(path)
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = None
        for name, argtypes in _RUN_SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = _F64
        return lib
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None


def _library() -> ctypes.CDLL | None:
    global _lib, _lib_failed
    if _lib is None and not _lib_failed:
        _lib = _build()
        if _lib is None:
            _lib_failed = True
    return _lib


def available() -> bool:
    """True when the shared object compiled (or was cached) and loads."""
    return _library() is not None


def _f64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _u8(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint8)


def _i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _pd(arr: np.ndarray):
    return arr.ctypes.data_as(_PD)


def _pu8(arr: np.ndarray):
    return arr.ctypes.data_as(_PU8)


def _pi64(arr: np.ndarray):
    return arr.ctypes.data_as(_PI64)


def _run_exact(name, tensor, lengths, dk, to_u8, extra=()):
    cc, m, width = tensor.shape
    out = np.empty(cc, dtype=np.float64)
    exact = np.ones(cc, dtype=np.uint8)
    if cc and m and width:
        data = _u8(tensor) if to_u8 else _f64(tensor)
        ptr = _pu8(data) if to_u8 else _pd(data)
        getattr(_library(), name)(
            ptr, *[_pd(e) for e in extra], _I64(cc), _I64(m),
            _I64(width), _pi64(_i64(lengths)), ctypes.c_double(dk),
            _pd(out), _pu8(exact))
    return out, exact.astype(bool)


def _run_banded(name, tensor, lengths, r, to_u8):
    cc, m, width = tensor.shape
    out = np.empty(cc, dtype=np.float64)
    if cc and m and width:
        data = _u8(tensor) if to_u8 else _f64(tensor)
        ptr = _pu8(data) if to_u8 else _pd(data)
        getattr(_library(), name)(
            ptr, _I64(cc), _I64(m), _I64(width), _pi64(_i64(lengths)),
            _I64(int(r)), _pd(out))
    return out


def dtw_exact(dm, lengths, dk=np.inf):
    """Exact DTW over a candidate stack; ``(values, exact_mask)``."""
    return _run_exact("dtw_exact", dm, lengths, float(dk), False)


def frechet_exact(dm, lengths, dk=np.inf):
    """Exact Frechet over a candidate stack; ``(values, exact_mask)``."""
    return _run_exact("frechet_exact", dm, lengths, float(dk), False)


def erp_exact(dm, ga, gb, lengths, dk=np.inf):
    """Exact ERP over a candidate stack; ``(values, exact_mask)``."""
    cc, m, width = dm.shape
    out = np.empty(cc, dtype=np.float64)
    exact = np.ones(cc, dtype=np.uint8)
    if cc and m and width:
        dm = _f64(dm)
        ga = _f64(ga)
        gb = _f64(gb)
        _library().erp_exact(
            _pd(dm), _pd(ga), _pd(gb), _I64(cc), _I64(m), _I64(width),
            _pi64(_i64(lengths)), ctypes.c_double(float(dk)),
            _pd(out), _pu8(exact))
    return out, exact.astype(bool)


def edr_exact(match, lengths, dk=np.inf):
    """Exact EDR over a candidate stack; ``(values, exact_mask)``."""
    return _run_exact("edr_exact", match, lengths, float(dk), True)


def lcss_exact(match, lengths, dk=np.inf):
    """Exact LCSS over a candidate stack; ``(values, exact_mask)``."""
    return _run_exact("lcss_exact", match, lengths, float(dk), True)


def dtw_banded(dm, lengths, r):
    """Banded DTW upper bounds at resolved radius ``r``."""
    return _run_banded("dtw_banded", dm, lengths, r, False)


def frechet_banded(dm, lengths, r):
    """Banded Frechet upper bounds at resolved radius ``r``."""
    return _run_banded("frechet_banded", dm, lengths, r, False)


def edr_banded(match, lengths, r):
    """Banded EDR upper bounds at resolved radius ``r``."""
    return _run_banded("edr_banded", match, lengths, r, True)


def lcss_banded(match, lengths, r):
    """Banded LCSS distance upper bounds at resolved radius ``r``."""
    return _run_banded("lcss_banded", match, lengths, r, True)


# -- run extension (signatures and contract: see .runs) ---------------------
# Reached only through a KernelSet, which exists once ``available()``
# has loaded ``_lib``.

_FLOAT64 = np.dtype(np.float64)


#: ``_addressof(_view(arr))`` is the address of a writable array's first
#: byte at a quarter of the cost of ``arr.ctypes.data``.
_addressof = ctypes.addressof
_view = ctypes.c_char.from_buffer


def _column(column: np.ndarray, size: int) -> np.ndarray:
    """A fresh buffer holding ``column`` for a kernel to sweep in place
    (path states are shared between sibling subtrees), refusing anything
    the C side would misread."""
    if (column.dtype != _FLOAT64 or column.shape != (size,)
            or not column.flags.c_contiguous):
        raise ValueError(
            f"bound state must be a contiguous float64 ({size},) array, "
            f"got {column.dtype} {column.shape}")
    return column.copy()


def _first_or_next(column: np.ndarray, m: int):
    """``(buffer, has_prev)`` for the DPs whose root state is empty."""
    if column.size == 0:
        return np.empty(m, dtype=np.float64), 0
    return _column(column, m), 1


def hausdorff_run(r, cmax, rows, slots, slack, cutoff):
    """:func:`repro.distances.kernels.runs.hausdorff_run` in C."""
    m = rows.shape[1]
    r = _column(r, m)
    cmax = _F64(cmax)
    bound = _lib.hausdorff_run(
        _addressof(_view(r)), _addressof(cmax), _addressof(_view(rows)),
        _addressof(_view(slots)), slots.size, m, slack, cutoff)
    return r, cmax.value, bound


def frechet_run(column, rows, slots, slack, cutoff):
    """:func:`repro.distances.kernels.runs.frechet_run` in C."""
    m = rows.shape[1]
    column, has_prev = _first_or_next(column, m)
    bound = _lib.frechet_run(
        _addressof(_view(column)), has_prev, _addressof(_view(rows)), _addressof(_view(slots)),
        slots.size, m, slack, cutoff)
    return column, bound


def dtw_run(column, rows, slots, cutoff):
    """:func:`repro.distances.kernels.runs.dtw_run` in C."""
    m = rows.shape[1]
    column, has_prev = _first_or_next(column, m)
    bound = _lib.dtw_run(
        _addressof(_view(column)), has_prev, _addressof(_view(rows)), _addressof(_view(slots)),
        slots.size, m, cutoff)
    return column, bound


def erp_run(column, rows, slots, prefix, cutoff):
    """:func:`repro.distances.kernels.runs.erp_run` in C."""
    m = rows.shape[1] - 1
    column = _column(column, m + 1)
    bound = _lib.erp_run(
        _addressof(_view(column)), _addressof(_view(rows)), _addressof(_view(slots)),
        slots.size, m, _addressof(_view(prefix)), cutoff)
    return column, bound


def edr_run(column, match, slots, cutoff):
    """:func:`repro.distances.kernels.runs.edr_run` in C."""
    m = match.shape[1]
    column = _column(column, m + 1)
    bound = _lib.edr_run(
        _addressof(_view(column)), _addressof(_view(match)), _addressof(_view(slots)),
        slots.size, m, cutoff)
    return column, bound


def lcss_run(column, depth, match, slots, max_traj_len, cutoff):
    """:func:`repro.distances.kernels.runs.lcss_run` in C."""
    m = match.shape[1]
    column = _column(column, m + 1)
    depth = _I64(depth)
    bound = _lib.lcss_run(
        _addressof(_view(column)), _addressof(depth), _addressof(_view(match)),
        _addressof(_view(slots)), slots.size, m, max_traj_len, cutoff)
    return column, depth.value, bound
