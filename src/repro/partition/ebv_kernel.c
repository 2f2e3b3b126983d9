/* EBV's Algorithm 1: the per-edge Eq. 2 loop of repro.partition.ebv.EBVCore.
 *
 * For each edge j = order[t], every part i gets
 *
 *     eva(i) = ((score(i) - I(u in keep[i])) - I(v in keep[i]))
 *
 * where score(i) is balance[i] + 2.0 under the maintained policy and
 * (ecount[i] * edge_unit + vcount[i] * vertex_unit) + 2.0 under the
 * derived one; the edge goes to the least eva, ties to the lowest id.
 * The operations and their order are the ones the Python loop and its
 * numpy oracle perform, so the result is the same double for double; it
 * must be built with -ffp-contract=off (no fused multiply-add) and never
 * with -ffast-math.
 *
 * With running != 0 the units follow the running totals before each
 * edge: alpha / ((assigned or 1) / p) and beta / ((covered or 1) / p).
 * A maintained balance vector is bumped once per unit in commit order:
 * edge_unit, then vertex_unit per new replica.
 *
 * member is the (rows, p) bool matrix, row-major, one byte per entry;
 * ecount, vcount, balance (NULL: derived) and member are updated in
 * place, out[j] receives the part and trace[t] (NULL: none) the number
 * of (vertex, part) replicas after step t.  The caller has checked
 * every index.
 */
#include <stdint.h>

void ebv_assign(int64_t p, const int64_t *src, const int64_t *dst,
                const int64_t *order, int64_t count, int64_t *out,
                int64_t *trace, uint8_t *member, int64_t *ecount,
                int64_t *vcount, double *balance, int running, double alpha,
                double beta, double edge_unit, double vertex_unit)
{
    int64_t assigned = 0, covered = 0;
    for (int64_t i = 0; i < p; i++) {
        assigned += ecount[i];
        covered += vcount[i];
    }
    for (int64_t t = 0; t < count; t++) {
        int64_t j = order[t];
        uint8_t *in_u = member + src[j] * p;
        uint8_t *in_v = member + dst[j] * p;
        if (running) {
            edge_unit = alpha / ((double)(assigned ? assigned : 1) / (double)p);
            vertex_unit = beta / ((double)(covered ? covered : 1) / (double)p);
        }
        int64_t w = 0;
        double best = 0.0;
        for (int64_t i = 0; i < p; i++) {
            double score = balance
                ? balance[i] + 2.0
                : ((double)ecount[i] * edge_unit + (double)vcount[i] * vertex_unit) + 2.0;
            double eva = (score - (double)in_u[i]) - (double)in_v[i];
            if (i == 0 || eva < best) {
                best = eva;
                w = i;
            }
        }
        out[j] = w;
        ecount[w] += 1;
        assigned += 1;
        /* a self loop's two rows are one: the second test sees the first write */
        int64_t gained = 0;
        if (!in_u[w]) {
            in_u[w] = 1;
            gained = 1;
        }
        if (!in_v[w]) {
            in_v[w] = 1;
            gained += 1;
        }
        if (balance) {
            double bumped = balance[w] + edge_unit;
            for (int64_t k = 0; k < gained; k++)
                bumped += vertex_unit;
            balance[w] = bumped;
        }
        vcount[w] += gained;
        covered += gained;
        if (trace)
            trace[t] = covered;
    }
}
