/**
 * @file
 * A FIFO ring buffer over a power-of-two slot array, indexed from the
 * oldest entry. It grows by doubling only when full, so once it reaches
 * its working size pushes and pops never allocate. Slots are reused in
 * place: a pushed slot keeps whatever it last held until written.
 */

#ifndef UDP_COMMON_RING_H
#define UDP_COMMON_RING_H

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace udp {

template <typename T>
class Ring
{
  public:
    /** @param min_capacity initial slots, rounded up to a power of two */
    explicit Ring(std::size_t min_capacity)
    {
        std::size_t cap = 1;
        while (cap < min_capacity) {
            cap <<= 1;
        }
        slots.resize(cap);
        mask = cap - 1;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Entry @p i counted from the oldest (0) to the newest (size-1). */
    T&
    operator[](std::size_t i)
    {
        assert(i < count);
        return slots[(head + i) & mask];
    }

    const T&
    operator[](std::size_t i) const
    {
        assert(i < count);
        return slots[(head + i) & mask];
    }

    T& front() { return (*this)[0]; }
    const T& front() const { return (*this)[0]; }
    T& back() { return (*this)[count - 1]; }
    const T& back() const { return (*this)[count - 1]; }

    /**
     * The free slot just past the newest entry, for the caller to fill in
     * place before pushBack() publishes it. Grows the ring when full.
     */
    T&
    tail()
    {
        if (count == slots.size()) {
            grow();
        }
        return slots[(head + count) & mask];
    }

    /** Publishes the slot returned by tail(). */
    void
    pushBack()
    {
        assert(count < slots.size());
        ++count;
    }

    /** Appends a copy of @p v, which must not refer into this ring. */
    void
    pushBack(const T& v)
    {
        tail() = v;
        ++count;
    }

    void
    popFront()
    {
        assert(count > 0);
        head = (head + 1) & mask;
        --count;
    }

    void
    popBack()
    {
        assert(count > 0);
        --count;
    }

    /** Removes entry @p i, moving each younger entry one place older. */
    void
    erase(std::size_t i)
    {
        assert(i < count);
        for (; i + 1 < count; ++i) {
            (*this)[i] = std::move((*this)[i + 1]);
        }
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    /** Doubles the slot array, moving the live entries oldest-first. */
    void
    grow()
    {
        std::vector<T> bigger(slots.size() * 2);
        for (std::size_t i = 0; i < count; ++i) {
            bigger[i] = std::move(slots[(head + i) & mask]);
        }
        slots.swap(bigger);
        mask = slots.size() - 1;
        head = 0;
    }

    std::vector<T> slots;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace udp

#endif // UDP_COMMON_RING_H
