      program p
      real a(12,12)
      integer i, j
      do j = 1, 12
      do i = 1, 12
      a(i,j) = 0.01*(i*3 + j*5 + 1)
      end do
      end do
      call sub(a, a)
      write(*,*) a(5,5), a(9,9)
      end
      subroutine sub(x, y)
      real x(12,12), y(12,12)
      integer i, j
      do i = 2, 11
      do j = 2, 11
      x(i,j) = 0.5*y(i,j-1) + 0.25*x(i,j)
      end do
      end do
      return
      end
