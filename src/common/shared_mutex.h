#ifndef CROWDEX_COMMON_SHARED_MUTEX_H_
#define CROWDEX_COMMON_SHARED_MUTEX_H_

#include <pthread.h>

namespace crowdex {

/// A reader/writer lock that lets a waiting writer in ahead of new readers.
///
/// `std::shared_mutex` on glibc is a reader-preferring `pthread_rwlock_t`:
/// as long as some reader holds the lock, further readers are admitted, so
/// two threads ranking back to back can keep a committing writer out
/// indefinitely. This wrapper initializes the rwlock with
/// `PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP` on glibc — once a writer
/// waits, new `lock_shared` calls queue behind it — and falls back to the
/// platform default elsewhere.
///
/// Meets the standard SharedMutex requirements, so `std::shared_lock` and
/// `std::unique_lock` work unchanged. The price of writer preference is
/// that a thread must never take the shared lock twice: with a writer
/// queued between the two acquisitions the second one would wait on the
/// writer, which waits on the first — a deadlock.
class SharedMutex {
 public:
  SharedMutex() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
#if defined(__GLIBC__)
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
#endif
    pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
  }
  ~SharedMutex() { pthread_rwlock_destroy(&rw_); }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() { pthread_rwlock_wrlock(&rw_); }
  bool try_lock() { return pthread_rwlock_trywrlock(&rw_) == 0; }
  void unlock() { pthread_rwlock_unlock(&rw_); }

  void lock_shared() { pthread_rwlock_rdlock(&rw_); }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  pthread_rwlock_t rw_;
};

}  // namespace crowdex

#endif  // CROWDEX_COMMON_SHARED_MUTEX_H_
