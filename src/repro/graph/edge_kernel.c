/* The edge-list block kernel of repro.graph.io: one pass over a block of
 * whole lines into preallocated arrays.
 *
 * It takes a block when the block is empty or ends with '\n', every byte
 * belongs to a token, a space, a tab or '\n', and every non-blank line
 * holds the same number of tokens as the others: two ("u v") or three
 * ("u v w").  An id is a run of ASCII digits no larger than INT64_MAX.  A
 * weight matches
 *
 *     [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?
 *
 * and is at most WEIGHT_MAX_BYTES long.  strtod and Python's float() both
 * round such a token correctly, so they give the same double.  The token
 * is copied into a NUL-terminated buffer first, so strtod reads only the
 * validated bytes, and the kernel declines unless the locale's decimal
 * point is ".".
 *
 * parse_edge_block writes the edges into src, dst and, for three-token
 * lines, weights, each with room for `capacity` entries (the block's
 * '\n' count, which bounds its edge lines).  It returns the edge count and
 * sets *columns to 0 (no edge), 2 or 3.  Any other block returns -1: the
 * caller's per-line parser owns every other form and every error message.
 */
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WEIGHT_MAX_BYTES 64

static int is_digit(unsigned char c)
{
    return (unsigned)(c - '0') < 10u;
}

static int ends_token(unsigned char c)
{
    return c == ' ' || c == '\t' || c == '\n';
}

/* The id at *cursor; 0 if it is not a digit run within int64. */
static int parse_id(const unsigned char **cursor, int64_t *out)
{
    const unsigned char *q = *cursor;
    int64_t value = 0;
    if (!is_digit(*q))
        return 0;
    do {
        int digit = *q++ - '0';
        if (value > (INT64_MAX - digit) / 10)
            return 0;
        value = value * 10 + digit;
    } while (is_digit(*q));
    *cursor = q;
    *out = value;
    return 1;
}

/* The weight at *cursor; 0 if it does not match the pattern above or is
 * longer than WEIGHT_MAX_BYTES. */
static int parse_weight(const unsigned char **cursor, double *out)
{
    const unsigned char *start = *cursor, *q = start;
    char token[WEIGHT_MAX_BYTES + 1];
    size_t digits = 0, length;
    if (*q == '+' || *q == '-')
        q++;
    for (; is_digit(*q); q++)
        digits++;
    if (*q == '.')
        for (q++; is_digit(*q); q++)
            digits++;
    if (!digits)
        return 0;
    if (*q == 'e' || *q == 'E') {
        q++;
        if (*q == '+' || *q == '-')
            q++;
        if (!is_digit(*q))
            return 0;
        while (is_digit(*q))
            q++;
    }
    length = (size_t)(q - start);
    if (length > WEIGHT_MAX_BYTES)
        return 0;
    memcpy(token, start, length);
    token[length] = '\0';
    *out = strtod(token, NULL);
    *cursor = q;
    return 1;
}

int64_t parse_edge_block(const char *block, int64_t size, int64_t capacity,
                         int64_t *src, int64_t *dst, double *weights,
                         int32_t *columns)
{
    const unsigned char *p = (const unsigned char *)block, *end = p + size;
    int64_t count = 0;
    int want = 0;
    *columns = 0;
    if (size == 0)
        return 0;
    /* The final '\n' stops every scan below inside the block. */
    if (end[-1] != '\n' || strcmp(localeconv()->decimal_point, ".") != 0)
        return -1;
    while (p < end) {
        int64_t ids[2] = {0, 0};
        double weight = 0.0;
        int tokens = 0;
        for (;;) {
            while (*p == ' ' || *p == '\t')
                p++;
            if (*p == '\n')
                break;
            if (tokens < 2) {
                if (!parse_id(&p, &ids[tokens]))
                    return -1;
            } else if (tokens > 2 || !parse_weight(&p, &weight)) {
                return -1;
            }
            tokens++;
            if (!ends_token(*p))
                return -1;
        }
        p++;
        if (tokens == 0)
            continue;
        if (tokens != want) {
            if (want || tokens == 1)
                return -1;
            want = tokens;
        }
        if (count == capacity)
            return -1;
        src[count] = ids[0];
        dst[count] = ids[1];
        if (tokens == 3)
            weights[count] = weight;
        count++;
    }
    *columns = want;
    return count;
}
