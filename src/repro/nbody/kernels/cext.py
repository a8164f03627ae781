"""Compiled C direct-sum kernels, built on demand with the host compiler.

The float32 ``targets x sources`` kernel, which every simulation force
pass runs, is the register-blocked direct sum of Elsen et al. /
Belleman et al. (PAPERS.md) applied to one CPU core: the paper's
``p x p`` tile.  Where the build has AVX-512 (``__AVX512F__`` under
``-march=native``), each call stages its sources once as SoA x/y/z/m
rows in caller scratch, zero-padded to 16 lanes, and sweeps them 16 at a
time against four targets held in registers; ``rsqrt14`` plus one Newton
step replaces the divide and square root, and one masked tail chunk
keeps the padding out of the sums.  Elsewhere the same function is a
portable loop, one target at a time, that the compiler vectorises.
Either way a row's sum depends only on its target and the sources, never
on the other targets of the call, so masked and full passes agree row
for row and serial and threaded runs agree bit for bit, on one host.
The SoA scratch is one grow-only buffer per thread.
The float64 and the self-interaction kernels are portable loops.  Each
kernel method stages what its C function addresses itself, within the
one call: inputs are made C-contiguous in the arithmetic dtype, and a
non-contiguous ``out`` takes the result through a dense temporary.

The shared library is compiled once per source revision into a per-user
cache directory (``REPRO_KERNEL_CACHE``, else ``~/.cache/repro-kernels``)
and loaded with :mod:`ctypes` — no build-time dependency, no Python
headers.  Hosts without a working C compiler simply report the backend
unavailable and the force paths stay on the NumPy reference.

Summation is reassociated by vectorisation and ``-ffast-math``, so
results are *not* bit-identical to the reference, and float32 results
differ between an AVX-512 build and the portable loop; the differential
oracle admits them under the ``compiled-f64`` / ``compiled-f32``
tolerances (:mod:`repro.check.oracle`).

The same library holds the tree plans' host-side tree machinery,
compiled as a second translation unit *without* fast-math and with FMA
contraction off, so its arithmetic rounds as the NumPy reference's does:

* :meth:`CExtensionBackend.octree_build` — the whole of
  :func:`repro.tree.octree.build_octree` after validation in one call
  (bounds, Morton keys, a stable LSD radix sort, the gathers, prefix
  sums, the node loop and the monopoles), emitting the NumPy build's
  arrays value for value;
* :meth:`CExtensionBackend.walk_lists` — the group traversal of
  :func:`repro.tree.walks.generate_walks`, emitting the NumPy loop's
  lists element for element in CSR form;
* :meth:`CExtensionBackend.walk_forces` — float32 evaluation of a range
  of walks: compiled code gathers each j-segment's sources into scratch
  and every segment goes through :meth:`CExtensionBackend.sources`, the
  call the per-walk path makes, so rows are bit-identical to it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.nbody.kernels.base import CoincidentPairError, KernelBackend

__all__ = ["CExtensionBackend"]

ENV_CACHE_DIR = "REPRO_KERNEL_CACHE"

#: Most coincident pairs reported before truncating the scan.
_MAX_BAD_PAIRS = 64

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Dense targets x sources direct sum.  One register accumulator triple
 * per target; the j loop auto-vectorises.  G is applied per target row
 * so `accumulate` composes per contribution. */
#define SOURCES_KERNEL(NAME, T, SQRT)                                        \
void NAME(const T *tx, int64_t nt, const T *sx, const T *sm, int64_t ns,     \
          T eps2, T G, T *out, int32_t accumulate)                           \
{                                                                            \
    for (int64_t i = 0; i < nt; ++i) {                                       \
        const T xi = tx[3*i], yi = tx[3*i+1], zi = tx[3*i+2];                \
        T ax = 0, ay = 0, az = 0;                                            \
        for (int64_t j = 0; j < ns; ++j) {                                   \
            const T dx = sx[3*j]   - xi;                                     \
            const T dy = sx[3*j+1] - yi;                                     \
            const T dz = sx[3*j+2] - zi;                                     \
            const T r2 = dx*dx + dy*dy + dz*dz + eps2;                       \
            const T inv = (T)1 / SQRT(r2);                                   \
            const T w = sm[j] * inv * inv * inv;                             \
            ax += w * dx; ay += w * dy; az += w * dz;                        \
        }                                                                    \
        if (accumulate) {                                                    \
            out[3*i] += G*ax; out[3*i+1] += G*ay; out[3*i+2] += G*az;        \
        } else {                                                             \
            out[3*i] = G*ax; out[3*i+1] = G*ay; out[3*i+2] = G*az;           \
        }                                                                    \
    }                                                                        \
}

/* All-pairs self interaction, diagonal excluded.  With eps2 == 0 a zero
 * (or non-finite) off-diagonal r2 is a coincident distinct pair: the
 * offending (i, j) pairs are recorded into `bad` (up to max_bad) and the
 * count returned, so the caller can name the bodies in its error. */
#define SELF_KERNEL(NAME, T, SQRT)                                           \
int64_t NAME(const T *x, const T *m, int64_t n, T eps2, T G, T *out,         \
             int64_t *bad, int64_t max_bad)                                  \
{                                                                            \
    int64_t n_bad = 0;                                                       \
    for (int64_t i = 0; i < n; ++i) {                                        \
        const T xi = x[3*i], yi = x[3*i+1], zi = x[3*i+2];                   \
        T ax = 0, ay = 0, az = 0;                                            \
        for (int64_t j = 0; j < n; ++j) {                                    \
            if (j == i) continue;                                            \
            const T dx = x[3*j]   - xi;                                      \
            const T dy = x[3*j+1] - yi;                                      \
            const T dz = x[3*j+2] - zi;                                      \
            const T r2 = dx*dx + dy*dy + dz*dz + eps2;                       \
            if (eps2 == (T)0 && !(r2 > (T)0)) {                              \
                if (n_bad < max_bad) {                                       \
                    bad[2*n_bad] = i; bad[2*n_bad+1] = j;                    \
                }                                                            \
                ++n_bad;                                                     \
                continue;                                                    \
            }                                                                \
            const T inv = (T)1 / SQRT(r2);                                   \
            const T w = m[j] * inv * inv * inv;                              \
            ax += w * dx; ay += w * dy; az += w * dz;                        \
        }                                                                    \
        out[3*i] = G*ax; out[3*i+1] = G*ay; out[3*i+2] = G*az;               \
    }                                                                        \
    return n_bad;                                                            \
}

SOURCES_KERNEL(repro_sources_f64, double, sqrt)

#if defined(__AVX512F__)
#include <immintrin.h>

/* Targets held in registers per sweep of the sources. */
#define TILE_TARGETS 4

/* One 16-source chunk against one target, lanes outside `lanes` left
 * untouched.  rsqrt14 plus one Newton step gives u = 2 / r; the 8 in
 * u^3 = 8 / r^3 is taken out with G. */
static inline void interact16(__m512 x, __m512 y, __m512 z, __m512 sx,
                              __m512 sy, __m512 sz, __m512 sm, __m512 eps2,
                              __mmask16 lanes, __m512 *ax, __m512 *ay,
                              __m512 *az)
{
    const __m512 dx = _mm512_sub_ps(sx, x);
    const __m512 dy = _mm512_sub_ps(sy, y);
    const __m512 dz = _mm512_sub_ps(sz, z);
    const __m512 r2 = _mm512_fmadd_ps(dx, dx,
        _mm512_fmadd_ps(dy, dy, _mm512_fmadd_ps(dz, dz, eps2)));
    const __m512 y0 = _mm512_rsqrt14_ps(r2);
    const __m512 u = _mm512_mul_ps(y0, _mm512_fnmadd_ps(
        r2, _mm512_mul_ps(y0, y0), _mm512_set1_ps(3.0f)));
    const __m512 w = _mm512_mul_ps(_mm512_mul_ps(sm, u), _mm512_mul_ps(u, u));
    *ax = _mm512_mask3_fmadd_ps(w, dx, *ax, lanes);
    *ay = _mm512_mask3_fmadd_ps(w, dy, *ay, lanes);
    *az = _mm512_mask3_fmadd_ps(w, dz, *az, lanes);
}

/* The paper's p x p tile on one core: the sources are staged once as
 * SoA x/y/z/m rows (64-byte aligned inside `scratch`, which holds at
 * least 4 * padded + 16 floats; padded is ns rounded up to 16, and the
 * padding is zero), then swept 16 lanes at a time against TILE_TARGETS
 * targets held in registers.  A target block past nt repeats the last
 * target and is not stored, so each row's sum depends only on its
 * target and the sources; the one masked tail chunk keeps the padding
 * out of every sum. */
void repro_sources_f32(const float *tx, int64_t nt, const float *sx,
                       const float *sm, int64_t ns, float eps2, float G,
                       float *out, int32_t accumulate, float *scratch)
{
    const int64_t padded = (ns + 15) & ~(int64_t)15, full = ns & ~(int64_t)15;
    float *xs = (float *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    float *ys = xs + padded, *zs = xs + 2*padded, *ms = xs + 3*padded;
    for (int64_t j = 0; j < ns; ++j) {
        xs[j] = sx[3*j]; ys[j] = sx[3*j+1]; zs[j] = sx[3*j+2]; ms[j] = sm[j];
    }
    for (int64_t j = ns; j < padded; ++j) xs[j] = ys[j] = zs[j] = ms[j] = 0.0f;
    const __mmask16 tail = (__mmask16)((1u << (ns & 15)) - 1u);
    const __m512 e2 = _mm512_set1_ps(eps2);
    const float g = 0.125f * G;
    for (int64_t i = 0; i < nt; i += TILE_TARGETS) {
        __m512 x[TILE_TARGETS], y[TILE_TARGETS], z[TILE_TARGETS];
        __m512 ax[TILE_TARGETS], ay[TILE_TARGETS], az[TILE_TARGETS];
        for (int k = 0; k < TILE_TARGETS; ++k) {
            const int64_t r = i + k < nt ? i + k : nt - 1;
            x[k] = _mm512_set1_ps(tx[3*r]);
            y[k] = _mm512_set1_ps(tx[3*r+1]);
            z[k] = _mm512_set1_ps(tx[3*r+2]);
            ax[k] = ay[k] = az[k] = _mm512_setzero_ps();
        }
        for (int64_t j = 0; j < full; j += 16) {
            const __m512 sxj = _mm512_load_ps(xs + j), syj = _mm512_load_ps(ys + j);
            const __m512 szj = _mm512_load_ps(zs + j), smj = _mm512_load_ps(ms + j);
            for (int k = 0; k < TILE_TARGETS; ++k)
                interact16(x[k], y[k], z[k], sxj, syj, szj, smj, e2,
                           (__mmask16)0xFFFF, &ax[k], &ay[k], &az[k]);
        }
        if (tail) {
            const __m512 sxj = _mm512_load_ps(xs + full), syj = _mm512_load_ps(ys + full);
            const __m512 szj = _mm512_load_ps(zs + full), smj = _mm512_load_ps(ms + full);
            for (int k = 0; k < TILE_TARGETS; ++k)
                interact16(x[k], y[k], z[k], sxj, syj, szj, smj, e2,
                           tail, &ax[k], &ay[k], &az[k]);
        }
        for (int k = 0; k < TILE_TARGETS && i + k < nt; ++k) {
            float *o = out + 3*(i + k);
            const float fx = g * _mm512_reduce_add_ps(ax[k]);
            const float fy = g * _mm512_reduce_add_ps(ay[k]);
            const float fz = g * _mm512_reduce_add_ps(az[k]);
            if (accumulate) { o[0] += fx; o[1] += fy; o[2] += fz; }
            else { o[0] = fx; o[1] = fy; o[2] = fz; }
        }
    }
}
#else
/* The portable loop; the scratch goes unused. */
static SOURCES_KERNEL(sources_f32, float, sqrtf)

void repro_sources_f32(const float *tx, int64_t nt, const float *sx,
                       const float *sm, int64_t ns, float eps2, float G,
                       float *out, int32_t accumulate, float *scratch)
{
    (void)scratch;
    sources_f32(tx, nt, sx, sm, ns, eps2, G, out, accumulate);
}
#endif

SELF_KERNEL(repro_self_f64, double, sqrt)
SELF_KERNEL(repro_self_f32, float, sqrtf)
"""

_WALKS_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* GroupMAC.accept term for term: the distance from the box [lo, hi] to
 * the centre of mass is summed (dx*dx + dy*dy) + dz*dz, as in
 * repro.tree.mac.aabb_distance, and the cell is accepted when
 * size < theta * max(dist, 1e-300). */
static int group_mac(const double *lo, const double *hi, const double *com,
                     double size, double theta)
{
    double d[3];
    for (int k = 0; k < 3; ++k) {
        double below = lo[k] - com[k], above = com[k] - hi[k];
        double t = below > 0.0 ? below : 0.0;
        d[k] = above > t ? above : t;
    }
    const double dist = sqrt((d[0]*d[0] + d[1]*d[1]) + d[2]*d[2]);
    return size < theta * (dist > 1e-300 ? dist : 1e-300);
}

/* Interaction lists of every group in CSR form, in the order of the
 * level-synchronous NumPy frontier loop: a FIFO queue visits each level
 * in frontier order and pushes an opened node's children in octant
 * order.  A node is accepted (cell list) when the MAC holds and its body
 * range misses the group's; else a leaf sends its bodies to the particle
 * list and an internal node is opened.  Entries past a list's capacity
 * are counted but not stored, so the offsets always end at the true
 * totals.  Returns 0, 1 when a list overflowed (retry with the totals),
 * or -1 on a malformed tree or a group outside [0, n_bodies). */
int32_t repro_walk_lists(
    const double *pos, int64_t n_bodies, const int64_t *starts,
    const int64_t *ends, const int64_t *children, const uint8_t *is_leaf,
    const double *sizes, const double *coms, int64_t n_nodes,
    const int64_t *groups, int64_t n_groups, double theta, int64_t *queue,
    int64_t *cell_offsets, int64_t *cells, int64_t cells_cap,
    int64_t *part_offsets, int64_t *parts, int64_t parts_cap)
{
    int64_t nc = 0, np_ = 0;
    if (n_nodes < 1) return -1;
    cell_offsets[0] = 0;
    part_offsets[0] = 0;
    for (int64_t g = 0; g < n_groups; ++g) {
        const int64_t gs = groups[2*g], ge = groups[2*g+1];
        if (gs < 0 || ge <= gs || ge > n_bodies) return -1;
        double lo[3], hi[3];
        for (int k = 0; k < 3; ++k) lo[k] = hi[k] = pos[3*gs + k];
        for (int64_t b = gs + 1; b < ge; ++b) {
            for (int k = 0; k < 3; ++k) {
                const double v = pos[3*b + k];
                if (v < lo[k]) lo[k] = v;
                if (v > hi[k]) hi[k] = v;
            }
        }
        int64_t head = 0, tail = 0;
        queue[tail++] = 0;
        while (head < tail) {
            const int64_t node = queue[head++];
            const int64_t s = starts[node], e = ends[node];
            if (s < 0 || e > n_bodies) return -1;
            if (!(s < ge && e > gs)
                && group_mac(lo, hi, coms + 3*node, sizes[node], theta)) {
                if (nc < cells_cap) cells[nc] = node;
                ++nc;
            } else if (is_leaf[node]) {
                for (int64_t b = s; b < e; ++b) {
                    if (np_ < parts_cap) parts[np_] = b;
                    ++np_;
                }
            } else {
                for (int o = 0; o < 8; ++o) {
                    const int64_t child = children[8*node + o];
                    if (child < 0) continue;
                    if (child >= n_nodes || tail >= n_nodes) return -1;
                    queue[tail++] = child;
                }
            }
        }
        cell_offsets[g + 1] = nc;
        part_offsets[g + 1] = np_;
    }
    return (nc > cells_cap || np_ > parts_cap) ? 1 : 0;
}

/* Entries [a, b) of one walk's interaction list (cells[0..nc), then
 * parts) as float32 sources at the start of src_pos / src_mass: the
 * float32 cast of repro.tree.bh_force.walk_sources' segment.  Returns 0,
 * or -1 when an entry indexes outside the tree or body arrays. */
int32_t repro_walk_gather_f32(
    const double *pos, const double *masses, int64_t n_bodies,
    const double *coms, const double *node_masses, int64_t n_nodes,
    const int64_t *cells, int64_t nc, const int64_t *parts, int64_t a,
    int64_t b, float *src_pos, float *src_mass)
{
    for (int64_t j = a; j < b; ++j) {
        const double *x;
        double m;
        if (j < nc) {
            const int64_t c = cells[j];
            if (c < 0 || c >= n_nodes) return -1;
            x = coms + 3*c;
            m = node_masses[c];
        } else {
            const int64_t p = parts[j - nc];
            if (p < 0 || p >= n_bodies) return -1;
            x = pos + 3*p;
            m = masses[p];
        }
        float *dst = src_pos + 3*(j - a);
        dst[0] = (float)x[0];
        dst[1] = (float)x[1];
        dst[2] = (float)x[2];
        src_mass[j - a] = (float)m;
    }
    return 0;
}

/* The whole of repro.tree.octree.build_octree, operation for operation
 * (no FMA contraction in this unit), so every array equals the NumPy
 * reference's.
 *
 * 1. Bounds: unless find_bounds is 0, center = 0.5 * (lo + hi) per axis
 *    and half_width = max(hi - lo) * 0.5 * (1 + 1e-9) + 1e-12, written
 *    back through center / half_width.
 * 2. Morton keys as repro.tree.morton.encode computes them (x is a
 *    digit's high bit), then a stable LSD radix sort of (key, body) in
 *    11-bit digits: ties keep body order, as numpy's stable argsort
 *    does.  A digit that every key shares is skipped.
 * 3. Positions and masses gathered into key order, and sequential prefix
 *    sums of m and m * x per axis, the first element taken as is, as
 *    numpy.cumsum does.
 * 4. The node loop: a LIFO stack pops a node; one with more than
 *    leaf_size bodies, above MORTON_DEPTH, is split on its key digit at
 *    its depth (child boundaries are lower bounds on the digit, as
 *    numpy.searchsorted finds them).  Its non-empty octants become
 *    children with consecutive indices in octant order, centred at
 *    centre + half * (+-1) per axis, and are pushed in that order.
 * 5. Monopoles: node mass and centre of mass from the prefix sums.
 *
 * Nodes past the capacity are counted but not stored, so *n_nodes is
 * always the true total.  Returns 0, 1 when the nodes overflowed (retry
 * with *n_nodes), -1 on n < 1, leaf_size < 1 or a given cube that is
 * not finite with a positive half width, or -2 when scratch memory
 * cannot be allocated. */

/* Octree levels in a 63-bit key: repro.tree.morton.MAX_DEPTH. */
#define MORTON_DEPTH 21
/* A depth-first stack holds at most 1 + 7 * MORTON_DEPTH entries. */
#define OCTREE_STACK (8 * (MORTON_DEPTH + 1))
#define RADIX_BITS 11
#define RADIX_PASSES 6
#define RADIX_SIZE (1 << RADIX_BITS)

static uint64_t spread_bits(uint64_t x)
{
    x &= 0x1FFFFFull;
    x = (x | (x << 32)) & 0x1F00000000FFFFull;
    x = (x | (x << 16)) & 0x1F0000FF0000FFull;
    x = (x | (x << 8)) & 0x100F00F00F00F00Full;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3ull;
    x = (x | (x << 2)) & 0x1249249249249249ull;
    return x;
}

int32_t repro_octree_build(
    const double *pos, const double *mass, int64_t n, int64_t leaf_size,
    double *center, double *half_width, int32_t find_bounds, uint64_t *keys,
    int64_t *order, double *pos_s, double *mass_s, int64_t cap,
    double *centers, double *half_widths, int64_t *starts, int64_t *ends,
    int64_t *children, uint8_t *is_leaf, int64_t *depths, double *coms,
    double *node_masses, int64_t *n_nodes)
{
    if (n < 1 || leaf_size < 1) return -1;
    if (find_bounds) {
        double lo[3], hi[3];
        for (int k = 0; k < 3; ++k) lo[k] = hi[k] = pos[k];
        for (int64_t i = 1; i < n; ++i) {
            for (int k = 0; k < 3; ++k) {
                const double v = pos[3*i + k];
                if (v < lo[k]) lo[k] = v;
                if (v > hi[k]) hi[k] = v;
            }
        }
        double extent = hi[0] - lo[0];
        for (int k = 0; k < 3; ++k) {
            center[k] = 0.5 * (lo[k] + hi[k]);
            if (hi[k] - lo[k] > extent) extent = hi[k] - lo[k];
        }
        *half_width = extent * 0.5 * (1.0 + 1e-9) + 1e-12;
    }
    if (!(isfinite(*half_width) && *half_width > 0.0)) return -1;
    for (int k = 0; k < 3; ++k)
        if (!isfinite(center[k])) return -1;

    /* Scratch: the sort's second (key, body) buffer, the digit counts
     * and the prefix sums, four doubles (m, mx, my, mz) per entry. */
    uint64_t *key_tmp = malloc((size_t)n * sizeof *key_tmp);
    int64_t *order_tmp = malloc((size_t)n * sizeof *order_tmp);
    int64_t *counts = malloc((size_t)RADIX_PASSES * RADIX_SIZE * sizeof *counts);
    double *csum = malloc((size_t)(n + 1) * 4 * sizeof *csum);
    if (!key_tmp || !order_tmp || !counts || !csum) {
        free(key_tmp); free(order_tmp); free(counts); free(csum);
        return -2;
    }

    /* 2. Keys, with every digit's histogram in the same sweep. */
    const double width = 2.0 * *half_width, grid = (double)(1 << MORTON_DEPTH);
    const int64_t last_cell = ((int64_t)1 << MORTON_DEPTH) - 1;
    for (int64_t b = 0; b < RADIX_PASSES * RADIX_SIZE; ++b) counts[b] = 0;
    for (int64_t i = 0; i < n; ++i) {
        uint64_t key = 0;
        for (int k = 0; k < 3; ++k) {
            const double rel = (pos[3*i + k] - center[k]) / width + 0.5;
            int64_t cell = (int64_t)floor(rel * grid);
            cell = cell < 0 ? 0 : (cell > last_cell ? last_cell : cell);
            key |= spread_bits((uint64_t)cell) << (2 - k);
        }
        key_tmp[i] = key;
        order_tmp[i] = i;
        for (int p = 0; p < RADIX_PASSES; ++p)
            ++counts[p * RADIX_SIZE + ((key >> (RADIX_BITS * p)) & (RADIX_SIZE - 1))];
    }
    uint64_t *src_k = key_tmp, *dst_k = keys;
    int64_t *src_o = order_tmp, *dst_o = order;
    for (int p = 0; p < RADIX_PASSES; ++p) {
        int64_t *c = counts + p * RADIX_SIZE, sum = 0;
        const unsigned shift = RADIX_BITS * p;
        if (c[(src_k[0] >> shift) & (RADIX_SIZE - 1)] == n) continue;
        for (int b = 0; b < RADIX_SIZE; ++b) {
            const int64_t t = c[b];
            c[b] = sum;
            sum += t;
        }
        for (int64_t i = 0; i < n; ++i) {
            const int64_t at = c[(src_k[i] >> shift) & (RADIX_SIZE - 1)]++;
            dst_k[at] = src_k[i];
            dst_o[at] = src_o[i];
        }
        uint64_t *tk = src_k; src_k = dst_k; dst_k = tk;
        int64_t *to = src_o; src_o = dst_o; dst_o = to;
    }
    if (src_k != keys) {
        for (int64_t i = 0; i < n; ++i) {
            keys[i] = src_k[i];
            order[i] = src_o[i];
        }
    }

    /* 3. Gathers and prefix sums. */
    csum[0] = csum[1] = csum[2] = csum[3] = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t b = order[i];
        const double m = mass[b];
        double *prev = csum + 4*i, *next = csum + 4*(i + 1);
        mass_s[i] = m;
        next[0] = i ? prev[0] + m : m;
        for (int k = 0; k < 3; ++k) {
            const double x = pos[3*b + k], mx = m * x;
            pos_s[3*i + k] = x;
            next[1 + k] = i ? prev[1 + k] + mx : mx;
        }
    }

    /* 4. The node loop; stack entries are (node, start, end, depth). */
    int64_t stack[4 * OCTREE_STACK] = {0, 0, n, 0};
    int64_t top = 1, count = 1;
    if (cap >= 1) {
        for (int k = 0; k < 3; ++k) centers[k] = center[k];
        half_widths[0] = *half_width;
        starts[0] = 0;
        ends[0] = n;
        for (int o = 0; o < 8; ++o) children[o] = -1;
        is_leaf[0] = 1;
        depths[0] = 0;
    }
    while (top > 0) {
        --top;
        const int64_t node = stack[4*top], s = stack[4*top+1];
        const int64_t e = stack[4*top+2], d = stack[4*top+3];
        if (e - s <= leaf_size || d >= MORTON_DEPTH) continue;
        const int stored = node < cap;
        if (stored) is_leaf[node] = 0;
        const int shift = (int)(3 * (MORTON_DEPTH - 1 - d));
        int64_t bounds[9];
        bounds[0] = s;
        bounds[8] = e;
        for (int o = 1; o < 8; ++o) {
            int64_t lo = bounds[o-1], hi = e;
            while (lo < hi) {
                const int64_t mid = lo + (hi - lo) / 2;
                if ((int)((keys[mid] >> shift) & 7u) < o) lo = mid + 1;
                else hi = mid;
            }
            bounds[o] = lo;
        }
        const double child_half = stored ? half_widths[node] * 0.5 : 0.0;
        for (int o = 0; o < 8; ++o) {
            const int64_t cs = bounds[o], ce = bounds[o+1];
            if (cs == ce) continue;
            const int64_t k = count++;
            if (stored) children[8*node + o] = k;
            if (k < cap) {
                for (int a = 0; a < 3; ++a) {
                    const double sign = (o >> (2 - a)) & 1 ? 1.0 : -1.0;
                    centers[3*k + a] = centers[3*node + a] + child_half * sign;
                }
                half_widths[k] = child_half;
                starts[k] = cs;
                ends[k] = ce;
                for (int c = 0; c < 8; ++c) children[8*k + c] = -1;
                is_leaf[k] = 1;
                depths[k] = d + 1;
            }
            stack[4*top] = k; stack[4*top+1] = cs;
            stack[4*top+2] = ce; stack[4*top+3] = d + 1;
            ++top;
        }
    }

    /* 5. Monopoles of the stored nodes. */
    const int64_t stored = count < cap ? count : cap;
    for (int64_t k = 0; k < stored; ++k) {
        const double *a = csum + 4*starts[k], *b = csum + 4*ends[k];
        const double m = b[0] - a[0];
        node_masses[k] = m;
        for (int c = 0; c < 3; ++c) coms[3*k + c] = (b[1 + c] - a[1 + c]) / m;
    }
    free(key_tmp); free(order_tmp); free(counts); free(csum);
    *n_nodes = count;
    return count > cap ? 1 : 0;
}
"""

#: Compile flags for the kernel translation unit.  fast-math is confined
#: to these kernels' own arithmetic.
_CFLAGS = ["-O3", "-march=native", "-ffast-math", "-fno-math-errno", "-fPIC"]

#: Compile flags for the walk translation unit: IEEE arithmetic, and no
#: contraction of ``a*b + c`` into an FMA (GCC's default under
#: ``-march=native``), which would move MAC decisions away from NumPy's.
_WALKS_CFLAGS = ["-O2", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-fPIC"]

#: Link flags — deliberately *without* any fast-math option: linking a
#: shared object with -ffast-math pulls in gcc's crtfastmath startup,
#: whose constructor flips the process-wide FTZ/DAZ bits at dlopen time
#: and silently breaks subnormal arithmetic for every other library in
#: the process.  Compiling fast, linking plain keeps the damage local.
_LDFLAGS = ["-shared"]


def _contiguous(dtype: type, *arrays: np.ndarray) -> list[np.ndarray]:
    """C-contiguous ``dtype`` copies (or the arrays themselves) for ctypes."""
    return [np.ascontiguousarray(a, dtype=dtype) for a in arrays]


def _cache_dir() -> Path:
    configured = os.environ.get(ENV_CACHE_DIR)
    if configured:
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build_library() -> Path:
    """Compile (or reuse) the shared library for the current source."""
    units = (("kernels", _SOURCE, _CFLAGS), ("walks", _WALKS_SOURCE, _WALKS_CFLAGS))
    digest = hashlib.sha256(
        "".join(src + " ".join(flags) for _, src, flags in units).encode()
        + " ".join(_LDFLAGS).encode()
    ).hexdigest()[:16]
    lib_path = _cache_dir() / f"repro_kernels_{digest}.so"
    if lib_path.exists():
        return lib_path
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    lib_path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=lib_path.parent) as tmp:
        cmds, objs = [], []
        for name, source, flags in units:
            src = Path(tmp) / f"{name}.c"
            src.write_text(source)
            objs.append(str(Path(tmp) / f"{name}.o"))
            cmds.append([cc, *flags, "-c", "-o", objs[-1], str(src)])
        tmp_lib = Path(tmp) / "kernels.so"
        cmds.append([cc, *_LDFLAGS, "-o", str(tmp_lib), *objs, "-lm"])
        for cmd in cmds:
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"{cc} failed (exit {proc.returncode}): "
                    f"{proc.stderr.strip()[:500]}"
                )
        # Atomic publish: concurrent builders race benignly to the same name.
        os.replace(tmp_lib, lib_path)
    return lib_path


class CExtensionBackend(KernelBackend):
    """Direct-sum kernels compiled with the host C compiler via ctypes."""

    name = "cext"
    kind = "compiled"

    def __init__(self) -> None:
        self._lib: ctypes.CDLL | None = None
        self._error: str | None = None
        self._local = threading.local()

    # -- lazy build ------------------------------------------------------
    def _load(self) -> ctypes.CDLL | None:
        if self._lib is not None or self._error is not None:
            return self._lib
        try:
            lib = ctypes.CDLL(str(_build_library()))
            c_i64, c_i32 = ctypes.c_int64, ctypes.c_int32
            c_f64, c_f32, p = ctypes.c_double, ctypes.c_float, ctypes.c_void_p
            lib.repro_sources_f64.restype = None
            lib.repro_sources_f64.argtypes = [p, c_i64, p, p, c_i64, c_f64, c_f64, p, c_i32]
            lib.repro_sources_f32.restype = None
            lib.repro_sources_f32.argtypes = [p, c_i64, p, p, c_i64, c_f32, c_f32, p, c_i32, p]
            lib.repro_self_f64.restype = c_i64
            lib.repro_self_f64.argtypes = [p, p, c_i64, c_f64, c_f64, p, p, c_i64]
            lib.repro_self_f32.restype = c_i64
            lib.repro_self_f32.argtypes = [p, p, c_i64, c_f32, c_f32, p, p, c_i64]
            lib.repro_walk_lists.restype = c_i32
            lib.repro_walk_lists.argtypes = [
                p, c_i64, p, p, p, p, p, p, c_i64, p, c_i64, c_f64, p,
                p, p, c_i64, p, p, c_i64,
            ]
            lib.repro_walk_gather_f32.restype = c_i32
            lib.repro_walk_gather_f32.argtypes = [
                p, p, c_i64, p, p, c_i64, p, c_i64, p, c_i64, c_i64, p, p,
            ]
            lib.repro_octree_build.restype = c_i32
            lib.repro_octree_build.argtypes = [
                p, p, c_i64, c_i64, p, p, c_i32, p, p, p, p, c_i64,
                p, p, p, p, p, p, p, p, p, p,
            ]
            self._lib = lib
        except (RuntimeError, OSError) as exc:
            self._error = str(exc)
        return self._lib

    @property
    def available(self) -> bool:
        return self._load() is not None

    @property
    def unavailable_reason(self) -> str | None:
        self._load()
        return self._error

    # -- kernels ---------------------------------------------------------
    @staticmethod
    def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
        return ctypes.c_void_p(arr.ctypes.data)

    def _soa_scratch(self, ns: int) -> int:
        """Address of this thread's scratch for ``repro_sources_f32``: room
        for four SoA rows (x, y, z, m) of ``ns`` rounded up to 16 lanes,
        plus the 64 bytes the kernel may skip to align them.  The buffer
        only grows, so its address is read once per growth."""
        local = self._local
        need = 4 * (-(-ns // 16) * 16) + 16
        if need > getattr(local, "scratch_size", 0):
            local.scratch = np.empty(need, dtype=np.float32)
            local.scratch_size, local.scratch_at = need, local.scratch.ctypes.data
        return local.scratch_at

    def sources(
        self,
        targets: np.ndarray,
        src_pos: np.ndarray,
        src_mass: np.ndarray,
        *,
        eps2: float,
        G: float = 1.0,
        out: np.ndarray,
        accumulate: bool = False,
        block: int = 2048,
    ) -> np.ndarray:
        """Dense ``targets x sources`` accelerations into ``out``.

        ``block`` is ignored (the kernel tiles for the host's SIMD width).
        Inputs are staged C-contiguous in ``out``'s dtype, and a
        non-contiguous ``out`` receives the sum through a dense temporary,
        all within this one call.
        """
        lib = self._load()
        assert lib is not None, "backend unavailable; resolve_backend gates this"
        dtype = out.dtype
        # spelled out, not _contiguous(): walk_forces calls this once per
        # segment, about 1,000 times a tree pass, and the helper costs more
        targets = np.ascontiguousarray(targets, dtype)
        src_pos = np.ascontiguousarray(src_pos, dtype)
        src_mass = np.ascontiguousarray(src_mass, dtype)
        dense = out if out.flags.c_contiguous else np.empty(out.shape, dtype)
        ns = src_pos.shape[0]
        args = (
            targets.ctypes.data, targets.shape[0],
            src_pos.ctypes.data, src_mass.ctypes.data, ns,
            float(dtype.type(eps2)), G, dense.ctypes.data,
            int(accumulate and dense is out),
        )
        if dtype == np.float64:
            lib.repro_sources_f64(*args)
        else:
            lib.repro_sources_f32(*args, self._soa_scratch(ns))
        if dense is not out:
            if accumulate:
                out += dense
            else:
                out[:] = dense
        return out

    def self_forces(
        self,
        positions: np.ndarray,
        masses: np.ndarray,
        *,
        eps2: float,
        G: float = 1.0,
        out: np.ndarray,
        block: int = 2048,
    ) -> np.ndarray:
        """All-pairs self accelerations into ``out``, staged as
        :meth:`sources` stages them; ``block`` is ignored."""
        lib = self._load()
        assert lib is not None, "backend unavailable; resolve_backend gates this"
        positions, masses = _contiguous(out.dtype, positions, masses)
        dense = out if out.flags.c_contiguous else np.empty(out.shape, out.dtype)
        fn = lib.repro_self_f64 if out.dtype == np.float64 else lib.repro_self_f32
        bad = np.empty((_MAX_BAD_PAIRS, 2), dtype=np.int64)
        scalar = float(np.dtype(out.dtype).type(eps2))
        n_bad = fn(
            self._ptr(positions), self._ptr(masses), positions.shape[0],
            scalar, G, self._ptr(dense), self._ptr(bad), _MAX_BAD_PAIRS,
        )
        if n_bad:
            shown = bad[: min(int(n_bad), _MAX_BAD_PAIRS)]
            raise CoincidentPairError([(int(i), int(j)) for i, j in shown])
        if dense is not out:
            out[:] = dense
        return out

    # -- tree --------------------------------------------------------------
    def octree_build(
        self,
        *,
        positions: np.ndarray,
        masses: np.ndarray,
        leaf_size: int,
        center: np.ndarray | None = None,
        half_width: float | None = None,
    ) -> dict[str, np.ndarray]:
        """The octree over ``positions`` and ``masses``: the whole build in one call.

        Computes the bounding cube unless both ``center`` and
        ``half_width`` are given, then the Morton keys, a stable radix
        sort, the sorted bodies, the nodes and their monopoles.  Returns
        the :class:`~repro.tree.octree.Octree` arrays by attribute name,
        array-equal in values and dtypes to the NumPy build of
        :func:`repro.tree.octree.build_octree`.  Validating the bodies is
        the caller's job; a body outside a given cube lands in its
        boundary cell.
        """
        lib = self._load()
        assert lib is not None, "backend unavailable; callers check .available"
        positions, masses = _contiguous(np.float64, positions, masses)
        n = positions.shape[0]
        find_bounds = center is None or half_width is None
        center = np.zeros(3) if find_bounds else np.asarray(center, dtype=np.float64)
        if positions.shape != (n, 3) or masses.shape != (n,) or center.shape != (3,):
            raise ValueError("positions must be (n, 3), masses (n,) and center (3,)")
        cube = np.append(center, 0.0 if find_bounds else float(half_width))
        body = dict(
            keys=np.empty(n, dtype=np.uint64), order=np.empty(n, dtype=np.int64),
            positions=np.empty((n, 3)), masses=np.empty(n),
        )
        n_nodes = np.empty(1, dtype=np.int64)
        # First guess at the node count (Plummer spheres need 1.5 nodes
        # per body at leaf_size 1 and under 6 per leaf_size bodies above);
        # an overflow reports the exact total and the build runs once more.
        cap = 8 * n // max(int(leaf_size), 1) + 64
        while True:
            nodes = dict(
                centers=np.empty((cap, 3)), half_widths=np.empty(cap),
                starts=np.empty(cap, dtype=np.int64), ends=np.empty(cap, dtype=np.int64),
                children=np.empty((cap, 8), dtype=np.int64),
                is_leaf=np.empty(cap, dtype=np.bool_),
                depths=np.empty(cap, dtype=np.int64),
                coms=np.empty((cap, 3)), node_masses=np.empty(cap),
            )
            status = lib.repro_octree_build(
                self._ptr(positions), self._ptr(masses), n, int(leaf_size),
                self._ptr(cube), self._ptr(cube[3:]), int(find_bounds),
                *(self._ptr(a) for a in body.values()), cap,
                *(self._ptr(a) for a in nodes.values()), self._ptr(n_nodes),
            )
            if status == -2:
                raise MemoryError("no scratch memory for the octree build")
            if status < 0:
                raise ValueError("malformed bodies or parameters passed to the octree build")
            m = int(n_nodes[0])
            if status == 0:
                return {**body, **{name: a[:m] for name, a in nodes.items()}}
            cap = m

    # -- walks -------------------------------------------------------------
    def walk_lists(
        self,
        *,
        positions: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        children: np.ndarray,
        is_leaf: np.ndarray,
        sizes: np.ndarray,
        coms: np.ndarray,
        groups: np.ndarray,
        theta: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interaction lists of every group: the compiled group traversal.

        Takes an octree's node arrays (``sizes`` are cube side lengths)
        and validated ``(k, 2)`` body ``groups``; returns ``(cell_offsets,
        cells, part_offsets, parts)``, array-equal to the NumPy frontier
        loop of :func:`repro.tree.walks.generate_walks`.
        """
        lib = self._load()
        assert lib is not None, "backend unavailable; callers check .available"
        positions, sizes, coms = _contiguous(np.float64, positions, sizes, coms)
        starts, ends, children, groups = _contiguous(
            np.int64, starts, ends, children, groups
        )
        leaf = np.ascontiguousarray(is_leaf, dtype=np.bool_).view(np.uint8)
        n_nodes, k = starts.shape[0], groups.shape[0]
        if not (
            positions.shape[1:] == (3,) and coms.shape == (n_nodes, 3)
            and ends.shape == sizes.shape == leaf.shape == (n_nodes,)
            and children.shape == (n_nodes, 8) and groups.shape == (k, 2)
        ):
            raise ValueError("inconsistent tree or group array shapes")
        queue = np.empty(n_nodes, dtype=np.int64)
        cell_offsets = np.empty(k + 1, dtype=np.int64)
        part_offsets = np.empty(k + 1, dtype=np.int64)
        # First guess at the list sizes (Plummer spheres at theta 0.6 need
        # about 900 cells per walk and 27 particles per body); an overflow
        # reports the exact totals through the offsets and the traversal
        # runs once more.  Untouched buffer tails are never paged in.
        caps = (1024 * k, 32 * positions.shape[0])
        while True:
            cells = np.empty(caps[0], dtype=np.int64)
            parts = np.empty(caps[1], dtype=np.int64)
            status = lib.repro_walk_lists(
                self._ptr(positions), positions.shape[0], self._ptr(starts),
                self._ptr(ends), self._ptr(children), self._ptr(leaf),
                self._ptr(sizes), self._ptr(coms), n_nodes,
                self._ptr(groups), k, float(theta), self._ptr(queue),
                self._ptr(cell_offsets), self._ptr(cells), caps[0],
                self._ptr(part_offsets), self._ptr(parts), caps[1],
            )
            if status < 0:
                raise ValueError("malformed octree passed to the walk traversal")
            if status == 0:
                return (
                    cell_offsets, cells[: cell_offsets[-1]],
                    part_offsets, parts[: part_offsets[-1]],
                )
            caps = (int(cell_offsets[-1]), int(part_offsets[-1]))

    def walk_forces(
        self,
        *,
        positions: np.ndarray,
        masses: np.ndarray,
        coms: np.ndarray,
        node_masses: np.ndarray,
        groups: np.ndarray,
        cell_offsets: np.ndarray,
        cells: np.ndarray,
        part_offsets: np.ndarray,
        parts: np.ndarray,
        ids: np.ndarray,
        splits: np.ndarray,
        eps2: float,
        G: float = 1.0,
    ) -> tuple[np.ndarray, int]:
        """Float32 accelerations of the walks ``ids``.

        The walks are CSR lists over sorted bodies (``positions``,
        ``masses``) and tree nodes (``coms``, ``node_masses``); walk ``w``'s
        list is evaluated in ``splits[w]`` j-segments whose partials
        accumulate in segment order.  Compiled code gathers each segment's
        sources into float32 scratch, and the segment goes through
        :meth:`sources` — the kernel call the per-walk path makes — so rows
        are bit-identical to it and every kernel call stays visible at that
        one entry point.  Returns the ``(sum of group sizes, 3)`` float32
        rows, packed in ``ids`` order, and the interaction count.
        """
        lib = self._load()
        assert lib is not None, "backend unavailable; resolve_backend gates this"
        positions, masses, coms, node_masses = _contiguous(
            np.float64, positions, masses, coms, node_masses
        )
        groups, cell_offsets, cells, part_offsets, parts, ids, splits = _contiguous(
            np.int64, groups, cell_offsets, cells, part_offsets, parts, ids, splits
        )
        k = groups.shape[0]
        if not (
            positions.shape[1:] == (3,) and masses.shape == positions.shape[:1]
            and coms.shape[1:] == (3,) and node_masses.shape == coms.shape[:1]
            and groups.shape == (k, 2) and splits.shape == (k,)
            and cell_offsets.shape == part_offsets.shape == (k + 1,)
            and ids.ndim == 1 and (ids.size == 0 or 0 <= ids.min() <= ids.max() < k)
            and (splits >= 1).all()
        ):
            raise ValueError("inconsistent walk arrays")
        gs, ge = groups[ids, 0], groups[ids, 1]
        if not (
            (gs >= 0).all() and (ge > gs).all() and (ge <= positions.shape[0]).all()
            and all(
                offsets[0] >= 0 and offsets[-1] <= entries.size
                and (np.diff(offsets) >= 0).all()
                for offsets, entries in ((cell_offsets, cells), (part_offsets, parts))
            )
        ):
            raise ValueError("walk groups or offsets outside the body or list arrays")
        nt, nc = ge - gs, np.diff(cell_offsets)[ids]
        lengths = nc + np.diff(part_offsets)[ids]
        out = np.zeros((int(nt.sum()), 3), dtype=np.float32)
        if ids.size == 0:
            return out, 0
        seg = int((-(-lengths // splits[ids])).max())
        # the targets of every walk, cast once: walk rows are views of it
        lo = int(gs.min())
        pos32 = positions[lo : int(ge.max())].astype(np.float32)
        src_pos = np.empty((seg, 3), dtype=np.float32)
        src_mass = np.empty(seg, dtype=np.float32)
        eps2 = float(np.float32(eps2))
        arrays = (
            self._ptr(positions), self._ptr(masses), positions.shape[0],
            self._ptr(coms), self._ptr(node_masses), coms.shape[0],
        )
        scratch = (self._ptr(src_pos), self._ptr(src_mass))
        cells_at, parts_at = cells.ctypes.data, parts.ctypes.data
        interactions, row = 0, 0
        for g0, n, c0, n_cells, p0, length, s in zip(
            gs.tolist(), nt.tolist(), cell_offsets[ids].tolist(), nc.tolist(),
            part_offsets[ids].tolist(), lengths.tolist(), splits[ids].tolist(),
        ):
            targets = pos32[g0 - lo : g0 - lo + n]
            acc = out[row : row + n]
            step = -(-length // s)
            for a in range(0, max(length, 1), max(step, 1)):
                b = min(a + step, length)
                status = lib.repro_walk_gather_f32(
                    *arrays, cells_at + cells.itemsize * c0, n_cells,
                    parts_at + parts.itemsize * p0,
                    a, b, *scratch,
                )
                if status < 0:
                    raise ValueError("walk lists index outside the tree or body arrays")
                self.sources(
                    targets, src_pos[: b - a], src_mass[: b - a],
                    eps2=eps2, G=G, out=acc, accumulate=True,
                )
                interactions += n * (b - a)
            row += n
        return out, interactions
