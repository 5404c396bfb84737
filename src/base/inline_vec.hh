/**
 * @file
 * A vector of trivially copyable elements whose first N live inside
 * the object that owns it.
 *
 * Per-node kernel state — a node's event heap, its NIC receive pool —
 * holds a handful of entries for a whole run, so a std::vector there
 * costs a heap block per node and a pointer chase per access for
 * nothing. InlineVec keeps the first N elements in raw storage inside
 * the owner and moves them to a heap block (doubling) only when a push
 * would overflow. The inline storage is never zero-filled: a slot that
 * is never pushed costs no write. The object is neither copyable nor
 * movable, because its data pointer may point into itself.
 */

#ifndef AQSIM_BASE_INLINE_VEC_HH
#define AQSIM_BASE_INLINE_VEC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace aqsim::base
{

/** Vector of trivially copyable @p T with @p N elements inline. */
template <typename T, std::uint32_t N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "elements are moved with memcpy");
    static_assert(N > 0, "use std::vector for no inline elements");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "the spill block comes from plain operator new");

  public:
    /** Empty. User-provided, so value-initialization does not zero
     * the inline storage either. */
    InlineVec() noexcept : data_(reinterpret_cast<T *>(buf_)) {}

    InlineVec(const InlineVec &) = delete;
    InlineVec &operator=(const InlineVec &) = delete;

    ~InlineVec()
    {
        if (spilled())
            ::operator delete(data_);
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint32_t capacity() const { return capacity_; }

    /** @return true once the elements live in a heap block. */
    bool spilled() const { return capacity_ > N; }

    T &operator[](std::size_t i) { return data_[i]; }
    T &front() { return data_[0]; }
    T &back() { return data_[size_ - 1]; }

    /** Append @p value (taken by value, so it may alias an element). */
    void
    push_back(T value)
    {
        if (size_ == capacity_)
            grow();
        data_[size_++] = value;
    }

    void pop_back() { --size_; }

  private:
    /** Move the elements to a heap block of twice the capacity. */
    [[gnu::noinline]] void
    grow()
    {
        const std::uint32_t cap = capacity_ * 2;
        T *block = static_cast<T *>(::operator new(sizeof(T) * cap));
        std::memcpy(static_cast<void *>(block), data_, sizeof(T) * size_);
        if (spilled())
            ::operator delete(data_);
        data_ = block;
        capacity_ = cap;
    }

    T *data_;
    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = N;
    alignas(T) std::byte buf_[sizeof(T) * N];
};

} // namespace aqsim::base

#endif // AQSIM_BASE_INLINE_VEC_HH
