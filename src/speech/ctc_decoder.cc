#include "speech/ctc_decoder.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "base/logging.hh"

namespace ernn::speech
{

namespace
{

const Real kNegInf = -std::numeric_limits<Real>::infinity();

/** Search bookkeeping of one live prefix. */
struct Cand
{
    Real pb = kNegInf;  //!< log P(prefix, alignment ends in blank)
    Real pnb = kNegInf; //!< log P(prefix, alignment ends in a label)

    /** Smallest symbol index that contributed probability to this
     *  prefix during the current frame — the deterministic tie-break
     *  (argmax's first-maximum convention at beamWidth 1). */
    int tieSym = std::numeric_limits<int>::max();

    Real score() const { return logAdd(pb, pnb); }

    void addBlankPath(Real lp, int sym)
    {
        pb = logAdd(pb, lp);
        tieSym = std::min(tieSym, sym);
    }

    void addLabelPath(Real lp, int sym)
    {
        pnb = logAdd(pnb, lp);
        tieSym = std::min(tieSym, sym);
    }
};

/** In-place log-softmax: subtract the frame's log-sum-exp. */
void
logSoftmax(const Vector &logits, Vector &lp)
{
    Real m = kNegInf;
    for (Real x : logits)
        m = std::max(m, x);
    Real sum = 0.0;
    for (Real x : logits)
        sum += std::exp(x - m);
    const Real lse = m + std::log(sum);
    lp.resize(logits.size());
    for (std::size_t c = 0; c < logits.size(); ++c)
        lp[c] = logits[c] - lse;
}

} // namespace

Real
logAdd(Real a, Real b)
{
    if (a == kNegInf)
        return b;
    if (b == kNegInf)
        return a;
    const Real hi = std::max(a, b);
    const Real lo = std::min(a, b);
    return hi + std::log1p(std::exp(lo - hi));
}

std::vector<CtcHypothesis>
ctcDecodeBeam(const nn::Sequence &logits, const CtcDecodeOptions &opts)
{
    ernn_assert(opts.beamWidth > 0, "ctc decode: beam width must be > 0");

    // The beam holds at most beamWidth distinct prefixes in
    // lexicographic order. Each frame scores flat candidate slots —
    // an entry's own prefix, or the entry extended by one symbol —
    // and an extension equal to a live entry aliases that entry's
    // slot, so duplicate prefixes merge. Walking entries in prefix
    // order and symbols ascending gives every slot its contributions
    // in a fixed order, so every log-sum-exp chain — hence every
    // returned bit — is a pure function of the input.
    struct Entry
    {
        std::vector<int> prefix;
        Real pb = kNegInf;
        Real pnb = kNegInf;
    };
    std::vector<Entry> beam(1);
    beam[0].pb = 0.0; // empty alignment: probability 1

    Vector lp;
    std::vector<Cand> slots;
    std::vector<std::size_t> target; //!< slot an extension lands in
    std::vector<Real> score;
    std::vector<std::size_t> order;
    std::vector<Entry> next;
    for (const Vector &frame : logits) {
        ernn_assert(!frame.empty(), "ctc decode: empty logit frame");
        ernn_assert(opts.blank < static_cast<int>(frame.size()),
                    "ctc decode: blank class " << opts.blank
                    << " outside " << frame.size() << " classes");
        logSoftmax(frame, lp);

        // Slot e * stride + c extends entry e by symbol c; slot
        // e * stride + classes is entry e's own prefix.
        const std::size_t classes = lp.size();
        const std::size_t stride = classes + 1;
        const std::size_t slotCount = beam.size() * stride;
        slots.assign(slotCount, Cand{});
        target.resize(slotCount);
        std::iota(target.begin(), target.end(), std::size_t{0});
        for (std::size_t e = 0; e < beam.size(); ++e) {
            const std::vector<int> &p = beam[e].prefix;
            if (p.empty())
                continue;
            // The parent (p minus its last symbol) sorts before p.
            for (std::size_t q = 0; q < e; ++q) {
                const std::vector<int> &pq = beam[q].prefix;
                if (pq.size() + 1 == p.size() &&
                    std::equal(pq.begin(), pq.end(), p.begin())) {
                    target[q * stride +
                           static_cast<std::size_t>(p.back())] =
                        e * stride + classes;
                    break;
                }
            }
        }

        for (std::size_t e = 0; e < beam.size(); ++e) {
            const Entry &b = beam[e];
            const Real total = logAdd(b.pb, b.pnb);
            const int last = b.prefix.empty() ? -1 : b.prefix.back();
            Cand &self = slots[e * stride + classes];
            for (int c = 0; c < static_cast<int>(classes); ++c) {
                Cand &ext = slots[target[e * stride +
                                         static_cast<std::size_t>(c)]];
                if (c == opts.blank) {
                    // Blank extends the alignment, not the prefix.
                    self.addBlankPath(total + lp[c], c);
                } else if (c == last) {
                    // A repeat merges into the same prefix...
                    if (b.pnb != kNegInf)
                        self.addLabelPath(b.pnb + lp[c], c);
                    // ...unless a blank separated it: then it is a
                    // genuine new token.
                    if (b.pb != kNegInf)
                        ext.addLabelPath(b.pb + lp[c], c);
                } else {
                    ext.addLabelPath(total + lp[c], c);
                }
            }
        }

        // Score every live slot once, then keep the beam width best.
        // Deterministic order: score descending, then smallest
        // contributing symbol, then lexicographic prefix — see the
        // header's parity contract.
        score.resize(slotCount);
        order.clear();
        for (std::size_t i = 0; i < slotCount; ++i) {
            if (slots[i].tieSym == std::numeric_limits<int>::max())
                continue; // no contribution: not a candidate
            score[i] = slots[i].score();
            order.push_back(i);
        }
        // Slot i's prefix is beam[i / stride].prefix, plus symbol
        // i % stride unless that is the own-prefix slot.
        const auto prefixLess = [&](std::size_t a, std::size_t b) {
            const std::vector<int> &pa = beam[a / stride].prefix;
            const std::vector<int> &pb = beam[b / stride].prefix;
            const std::size_t sa = a % stride, sb = b % stride;
            const std::size_t na = pa.size() + (sa < classes);
            const std::size_t nb = pb.size() + (sb < classes);
            for (std::size_t k = 0; k < std::min(na, nb); ++k) {
                const int x = k < pa.size() ? pa[k] : static_cast<int>(sa);
                const int y = k < pb.size() ? pb[k] : static_cast<int>(sb);
                if (x != y)
                    return x < y;
            }
            return na < nb;
        };
        const std::size_t keep = std::min(opts.beamWidth, order.size());
        std::partial_sort(order.begin(), order.begin() + keep,
                          order.end(),
                          [&](std::size_t a, std::size_t b) {
                              if (score[a] != score[b])
                                  return score[a] > score[b];
                              if (slots[a].tieSym != slots[b].tieSym)
                                  return slots[a].tieSym <
                                         slots[b].tieSym;
                              return prefixLess(a, b);
                          });
        order.resize(keep);
        std::sort(order.begin(), order.end(), prefixLess);

        next.resize(keep);
        for (std::size_t k = 0; k < keep; ++k) {
            const std::size_t i = order[k];
            next[k].prefix = beam[i / stride].prefix;
            if (i % stride < classes)
                next[k].prefix.push_back(static_cast<int>(i % stride));
            next[k].pb = slots[i].pb;
            next[k].pnb = slots[i].pnb;
        }
        beam.swap(next);
    }

    std::vector<CtcHypothesis> out;
    out.reserve(beam.size());
    for (const Entry &e : beam)
        out.push_back(CtcHypothesis{e.prefix, logAdd(e.pb, e.pnb)});
    std::stable_sort(out.begin(), out.end(),
                     [](const CtcHypothesis &a, const CtcHypothesis &b) {
                         if (a.logProb != b.logProb)
                             return a.logProb > b.logProb;
                         return a.labels < b.labels;
                     });
    return out;
}

CtcHypothesis
ctcDecode(const nn::Sequence &logits, const CtcDecodeOptions &opts)
{
    return ctcDecodeBeam(logits, opts).front();
}

} // namespace ernn::speech
