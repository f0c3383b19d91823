#include "he/ckks_encoder.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"
#include "he/modarith.h"

namespace vfps::he {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

Result<CkksEncoder> CkksEncoder::Create(std::shared_ptr<const RnsContext> ctx) {
  CkksEncoder enc(std::move(ctx));
  const size_t n = enc.ctx_->n();
  if (n < 4 || (n & (n - 1)) != 0) {
    return Status::InvalidArgument("CkksEncoder: ring degree must be a power of two >= 4");
  }
  // The largest double at most Q/2: a coefficient strictly below it rounds
  // to at most (Q - 1) / 2 in magnitude (Q is odd), inside the centered
  // range.
  const long double half_q = enc.ctx_->modulus_approx() / 2.0L;
  double bound = static_cast<double>(half_q);
  while (static_cast<long double>(bound) > half_q) {
    bound = std::nextafter(bound, 0.0);
  }
  enc.coeff_bound_ = std::min(bound, 0x1p62);
  enc.twist_re_.resize(n);
  enc.twist_im_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const double angle = kPi * static_cast<double>(k) / static_cast<double>(n);
    enc.twist_re_[k] = std::cos(angle);
    enc.twist_im_[k] = std::sin(angle);
  }
  // Roots e^{-2*pi*i*j/n}; the stage of half-length h reads every
  // (n / 2h)-th one, so gather each stage's roots into a contiguous run.
  std::vector<double> cos_j(n / 2);
  std::vector<double> sin_j(n / 2);
  for (size_t j = 0; j < n / 2; ++j) {
    const double angle = -2.0 * kPi * static_cast<double>(j) / static_cast<double>(n);
    cos_j[j] = std::cos(angle);
    sin_j[j] = std::sin(angle);
  }
  enc.root_re_.resize(n - 1);
  enc.root_im_.resize(n - 1);
  for (size_t h = 1; h < n; h <<= 1) {
    const size_t step = n / (2 * h);
    for (size_t k = 0; k < h; ++k) {
      enc.root_re_[h - 1 + k] = cos_j[k * step];
      enc.root_im_[h - 1 + k] = sin_j[k * step];
    }
  }
  // The NTT tables already hold the bit-reversal permutation for this n;
  // share it instead of recomputing (every RNS prime uses the same ring
  // degree, so table 0 suffices).
  enc.bit_rev_ = enc.ctx_->ntt(0).bit_rev();
  return enc;
}

namespace {
// One run of h butterflies (u, v) <- (u + w*v, u - w*v), with the complex
// product written out as (wr*vr - wi*vi, wr*vi + wi*vr). The inverse uses
// conj(w): the same products with the signs of the wi terms flipped, which
// IEEE arithmetic makes exactly equal to multiplying by (wr, -wi). The runs
// never overlap, so the restrict qualifiers let the compiler vectorize.
template <bool kInverse>
void Butterflies(double* __restrict ur, double* __restrict ui,
                 double* __restrict vr, double* __restrict vi,
                 const double* __restrict wr, const double* __restrict wi,
                 size_t h) {
  for (size_t k = 0; k < h; ++k) {
    const double tr = kInverse ? wr[k] * vr[k] + wi[k] * vi[k]
                               : wr[k] * vr[k] - wi[k] * vi[k];
    const double ti = kInverse ? wr[k] * vi[k] - wi[k] * vr[k]
                               : wr[k] * vi[k] + wi[k] * vr[k];
    const double xr = ur[k];
    const double xi = ui[k];
    ur[k] = xr + tr;
    ui[k] = xi + ti;
    vr[k] = xr - tr;
    vi[k] = xi - ti;
  }
}

// llround(x) for |x| < 2^62 without the libm call: truncate, then step away
// from zero when the remainder is at least one half. x - trunc(x) is exact
// (Sterbenz), so the result matches llround bit for bit.
inline int64_t RoundHalfAway(double x) {
  const auto t = static_cast<int64_t>(x);
  const double frac = x - static_cast<double>(t);
  return t + (frac >= 0.5 ? 1 : 0) - (frac <= -0.5 ? 1 : 0);
}
}  // namespace

template <bool kInverse>
void CkksEncoder::Fft(double* re, double* im) const {
  const size_t n = ctx_->n();
  for (size_t h = 1; h < n; h <<= 1) {
    const double* wr = root_re_.data() + (h - 1);
    const double* wi = root_im_.data() + (h - 1);
    for (size_t i = 0; i < n; i += 2 * h) {
      Butterflies<kInverse>(re + i, im + i, re + i + h, im + i + h, wr, wi, h);
    }
  }
}

Result<RnsPoly> CkksEncoder::Encode(std::span<const double> values,
                                    double scale) const {
  RnsPoly poly;
  VFPS_RETURN_NOT_OK(EncodeCoeffs(values, scale, &poly));
  ToNtt(*ctx_, &poly);
  return poly;
}

Status CkksEncoder::EncodeCoeffs(std::span<const double> values, double scale,
                                 RnsPoly* out) const {
  const size_t n = ctx_->n();
  if (values.size() > slot_count()) {
    return Status::CapacityError(
        StrFormat("CkksEncoder: %zu values exceed %zu slots", values.size(),
                  slot_count()));
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("CkksEncoder: scale must be positive");
  }
  // Per-thread FFT scratch (the encrypt hot path encodes one chunk per
  // ciphertext). assign() zeroes every element, so state never leaks
  // between calls — the zero fill IS the tail mask for partially-filled
  // chunks. Loading through the bit-reversal permutation (an involution)
  // replaces the FFT's swap pass.
  thread_local std::vector<double> re;
  thread_local std::vector<double> im;
  re.assign(n, 0.0);
  im.assign(n, 0.0);
  for (size_t j = 0; j < values.size(); ++j) re[bit_rev_[j]] = values[j];
  Fft<false>(re.data(), im.data());
  const double inv = 2.0 / static_cast<double>(n);
  thread_local std::vector<int64_t> rounded;
  rounded.resize(n);
  for (size_t k = 0; k < n; ++k) {
    // c_k = (2/n) * Re(w^{-k} * A_k) * scale
    const double coeff =
        inv * (twist_re_[k] * re[k] + twist_im_[k] * im[k]) * scale;
    if (!(std::abs(coeff) < coeff_bound_)) {
      return Status::OutOfRange(
          StrFormat("CkksEncoder: coefficient %.3e overflows encode bound; "
                    "reduce the scale or the value magnitudes",
                    coeff));
    }
    rounded[k] = RoundHalfAway(coeff);
  }
  // |c| < min(Q/2, 2^62), so one 64-bit Barrett reduction per prime maps it
  // to RNS.
  ResizePoly(*ctx_, out);
  for (size_t i = 0; i < out->num_primes(); ++i) {
    const Modulus& mod = ctx_->modulus(i);
    uint64_t* dst = out->residues[i].data();
    for (size_t k = 0; k < n; ++k) {
      const int64_t c = rounded[k];
      const uint64_t mag =
          c < 0 ? 0 - static_cast<uint64_t>(c) : static_cast<uint64_t>(c);
      const uint64_t r = BarrettReduce64(mag, mod);
      dst[k] = (c >= 0 || r == 0) ? r : mod.value - r;
    }
  }
  return Status::OK();
}

Result<std::vector<double>> CkksEncoder::Decode(const RnsPoly& poly,
                                                double scale,
                                                size_t count) const {
  const size_t n = ctx_->n();
  if (count > slot_count()) {
    return Status::CapacityError("CkksEncoder: decode count exceeds slots");
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("CkksEncoder: scale must be positive");
  }
  // Per-thread scratch; fully overwritten from `poly` before use.
  thread_local RnsPoly coeff_form;
  coeff_form.residues.resize(poly.num_primes());
  for (size_t i = 0; i < poly.num_primes(); ++i) {
    coeff_form.residues[i].assign(poly.residues[i].begin(),
                                  poly.residues[i].end());
  }
  coeff_form.ntt_form = poly.ntt_form;
  FromNtt(*ctx_, &coeff_form);
  // Same reuse as Encode: every element is written below, in bit-reversed
  // order, before the FFT reads it.
  thread_local std::vector<double> re;
  thread_local std::vector<double> im;
  re.resize(n);
  im.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const double c = ComposeCoeffToDouble(*ctx_, coeff_form, k);
    re[bit_rev_[k]] = twist_re_[k] * c;
    im[bit_rev_[k]] = twist_im_[k] * c;
  }
  Fft<true>(re.data(), im.data());
  std::vector<double> out(count);
  for (size_t j = 0; j < count; ++j) out[j] = re[j] / scale;
  return out;
}

}  // namespace vfps::he
