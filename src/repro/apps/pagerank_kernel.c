/* PageRank's per-edge pass of repro.apps.pagerank.PageRank.compute.
 *
 * pagerank_scatter zeroes partials[0, n), then adds share[src[e]] into
 * partials[dst[e]] for every edge e in edge order: the additions and
 * their order are those of np.bincount(dst, weights=share[src],
 * minlength=n), so the sums are the same doubles.  The caller has
 * checked that every src and dst index lies in [0, n).
 */
#include <stdint.h>

void pagerank_scatter(int64_t n, int64_t m, const int64_t *src,
                      const int64_t *dst, const double *share,
                      double *partials)
{
    for (int64_t v = 0; v < n; v++)
        partials[v] = 0.0;
    for (int64_t e = 0; e < m; e++)
        partials[dst[e]] += share[src[e]];
}
