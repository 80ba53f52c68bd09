#include "util/set_ops.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>

namespace hgmatch {
namespace {

// Sizes more asymmetric than this ratio take the galloping (binary-search)
// path; the constant follows common practice in search-engine posting-list
// kernels.
constexpr size_t kGallopRatio = 32;

// Galloping intersection: for each element of the small list, locate it in
// the large list via exponential + binary search, advancing a frontier.
void IntersectGallop(std::span<const uint32_t> small,
                     std::span<const uint32_t> large,
                     std::vector<uint32_t>* out) {
  size_t lo = 0;
  for (uint32_t x : small) {
    // Exponential probe from the current frontier.
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < x) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    if (hi > large.size()) hi = large.size();
    const auto it = std::lower_bound(large.begin() + lo, large.begin() + hi, x);
    lo = static_cast<size_t>(it - large.begin());
    if (lo < large.size() && large[lo] == x) {
      out->push_back(x);
      ++lo;
    }
    if (lo >= large.size()) break;
  }
}

void IntersectMerge(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    std::vector<uint32_t>* out) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

// A span of at most this many 64-bit words per input item takes the bitmap
// union: setting one bit per item and scanning the words is then cheaper
// than a heap merge, whose cost grows with log(#inputs) per item.
constexpr size_t kBitmapUnionWordsPerItem = 4;

// Union over the id span [base, base + 64 * words): set one bit per item,
// then scan the words in order, which emits the union sorted and
// duplicate-free. The thread's bitmap is all-zero between calls; the scan
// clears each word as it reads it.
void UnionBitmap(const std::vector<std::span<const uint32_t>>& inputs,
                 uint32_t base, size_t words, size_t total,
                 std::vector<uint32_t>* out) {
  static thread_local std::vector<uint64_t> bits;
  if (bits.size() < words) bits.resize(words);
  for (std::span<const uint32_t> in : inputs) {
    for (uint32_t x : in) {
      const uint32_t off = x - base;
      bits[off >> 6] |= 1ULL << (off & 63);
    }
  }
  out->resize(total);
  uint32_t* dst = out->data();
  for (size_t w = 0; w < words; ++w) {
    uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const uint32_t word_base = base + static_cast<uint32_t>(w << 6);
    do {
      *dst++ = word_base + static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
    } while (word != 0);
  }
  out->resize(static_cast<size_t>(dst - out->data()));
}

}  // namespace

void Intersect(std::span<const uint32_t> a, std::span<const uint32_t> b,
               std::vector<uint32_t>* out) {
  out->clear();
  if (a.empty() || b.empty()) return;
  const std::span<const uint32_t> small = a.size() <= b.size() ? a : b;
  const std::span<const uint32_t> large = a.size() <= b.size() ? b : a;
  out->reserve(small.size());
  if (large.size() / (small.size() + 1) >= kGallopRatio) {
    IntersectGallop(small, large, out);
  } else {
    IntersectMerge(a, b, out);
  }
}

size_t IntersectSize(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

void Union(std::span<const uint32_t> a, std::span<const uint32_t> b,
           std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

void UnionMany(const std::vector<std::span<const uint32_t>>& inputs,
               std::vector<uint32_t>* out) {
  out->clear();
  if (inputs.empty()) return;
  if (inputs.size() == 1) {
    out->assign(inputs[0].begin(), inputs[0].end());
    return;
  }
  if (inputs.size() == 2) {
    Union(inputs[0], inputs[1], out);
    return;
  }
  size_t total = 0;
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (std::span<const uint32_t> in : inputs) {
    if (in.empty()) continue;
    total += in.size();
    lo = std::min(lo, in.front());
    hi = std::max(hi, in.back());
  }
  if (total == 0) return;
  const uint32_t base = lo & ~63u;
  const size_t words = ((hi - base) >> 6) + 1;
  if (words <= kBitmapUnionWordsPerItem * total) {
    UnionBitmap(inputs, base, words, total, out);
    return;
  }
  // K-way merge with a min-heap over (value, input index, position).
  struct Cursor {
    uint32_t value;
    uint32_t input;
    uint32_t pos;
    bool operator>(const Cursor& other) const { return value > other.value; }
  };
  std::priority_queue<Cursor, std::vector<Cursor>, std::greater<Cursor>> heap;
  for (uint32_t k = 0; k < inputs.size(); ++k) {
    if (!inputs[k].empty()) heap.push({inputs[k][0], k, 0});
  }
  out->reserve(total);
  while (!heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    if (out->empty() || out->back() != c.value) out->push_back(c.value);
    const std::span<const uint32_t> in = inputs[c.input];
    if (c.pos + 1 < in.size()) heap.push({in[c.pos + 1], c.input, c.pos + 1});
  }
}

bool Contains(std::span<const uint32_t> a, uint32_t x) {
  return std::binary_search(a.begin(), a.end(), x);
}

bool Intersects(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

void InsertSorted(std::vector<uint32_t>* a, uint32_t x) {
  auto it = std::lower_bound(a->begin(), a->end(), x);
  if (it == a->end() || *it != x) a->insert(it, x);
}

void SortUnique(std::vector<uint32_t>* a) {
  std::sort(a->begin(), a->end());
  a->erase(std::unique(a->begin(), a->end()), a->end());
}

}  // namespace hgmatch
